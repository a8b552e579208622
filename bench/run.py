"""The gauss-deficit benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: matrix-2d, grid-kernels, gh-1d, fp-flow (see bench/README.md).
The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics: wall_s (median untraced pass),
setup_s (median fresh-interpreter set-up), peak_mem_mb (tracemalloc peak of a
single-thread pass), failed_frac, extremiser_err and gauss_margin_err.
`--trace 1` reports the per-layer metrics of bench/layers.py from a traced
run, with the tracing overhead.  The lines before the last give the machine,
the per-pass samples and, for a traced run, each per-layer metric with the
end-to-end metric and workloads it should move.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import END_TO_END, METRIC_LAYERS, PER_LAYER  # noqa: E402
from machine import SRC, MissingLibrary, load_library, machine_facts  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import USES_POOL, WORKLOADS  # noqa: E402

SETUP_SPAWNS = 5
FAILED_FLOOR = 1e-6      # below 1/attempted for any run: 0 failures reads 1e-6
ERROR_FLOOR = 1e-12      # float-order noise below this is not a regression
MB = 1024.0 * 1024.0

SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import gauss_deficit as gd\n"
    "gd.default_grid().points\n"
    "gd.gauss_hermite_rule(96)\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def measure_setup(spawns=SETUP_SPAWNS):
    """Seconds to import the library and build the default grid and GH rule,
    each in a fresh interpreter, run one after another."""
    samples = []
    for _ in range(spawns):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC],
                             capture_output=True, text=True, timeout=120,
                             check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def run_pass(ops):
    gc.collect()
    t0 = time.perf_counter()
    raws = [op.run() for op in ops]
    return time.perf_counter() - t0, raws


def score(ops, raws):
    items = []
    for op, raw in zip(ops, raws):
        items.extend(op.score(raw))
    return items


class single_thread:
    """Run the CLI pool with one worker, restoring GAUSS_DEFICIT_THREADS after."""

    def __enter__(self):
        self.saved = os.environ.get("GAUSS_DEFICIT_THREADS")
        os.environ["GAUSS_DEFICIT_THREADS"] = "1"

    def __exit__(self, *exc):
        if self.saved is None:
            del os.environ["GAUSS_DEFICIT_THREADS"]
        else:
            os.environ["GAUSS_DEFICIT_THREADS"] = self.saved


def memory_pass(ops, tracer=None):
    """A single-thread pass under tracemalloc: (peak bytes, items).

    tracemalloc is used, not ru_maxrss: ru_maxrss is a whole-process
    high-water mark that cannot be reset per pass and counts memory the
    allocator kept; identical single-thread matrix-2d runs were seen to read
    102 MB or 1102 MB of it, and 340 or 1350 MB at two threads.
    """
    with single_thread():
        gc.collect()
        tracemalloc.start()
        try:
            if tracer is not None:
                tracer.reset()
                tracer.memory = True
                tracer.install()
            try:
                _, raws = run_pass(ops)
            finally:
                if tracer is not None:
                    tracer.uninstall()
                    tracer.memory = False
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    if tracer is not None:
        peak = max(peak, tracer.mem_high)
    return peak, score(ops, raws)


def warm_up(ops):
    """One untimed pass on the CLI pool, after the single-thread memory pass:
    the first pool pass runs about 10 % slower than the ones after it."""
    _, raws = run_pass(ops)
    return score(ops, raws)


def timed_passes(ops, seconds, tracer=None):
    """Repeat passes until `seconds` have gone by (at least one)."""
    walls, passes = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        if tracer is None:
            wall, raws = run_pass(ops)
            passes.append(score(ops, raws))
        else:
            tracer.reset()
            tracer.install()
            try:
                t0 = time.perf_counter()
                wall, raws = run_pass(ops)
                t1 = time.perf_counter()
            finally:
                tracer.uninstall()
            buckets, rest = tracer.self_times(t0, t1)
            passes.append((score(ops, raws), dict(tracer.counts), buckets,
                           rest, t1 - t0))
        walls.append(wall)
    return walls, passes


def judge(reference, passes):
    """Ground-truth and repeatability verdicts over all passes of a run."""
    ref = {it.key: it.numbers for it in reference}
    attempted = failed_ops = failed_any = 0
    ext, gauss = [], []
    for items in [reference] + passes:
        for it in items:
            attempted += 1
            unrepeatable = ref.get(it.key) != it.numbers
            if it.raised or unrepeatable:
                failed_ops += 1
            if it.raised or unrepeatable or it.failed:
                failed_any += 1
            if it.extremiser_err is not None:
                ext.append(it.extremiser_err)
            gauss.extend(abs(m) for m in it.gauss_margins)
    return {
        "attempted": attempted,
        "failed": failed_ops,
        "failed_frac": max(failed_any / attempted, FAILED_FLOOR),
        "extremiser_err": max(ext + [ERROR_FLOOR]),
        "gauss_margin_err": max(gauss + [ERROR_FLOOR]),
    }


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def untraced_run(ops, seconds):
    setup = measure_setup()
    t0 = time.perf_counter()
    peak, reference = memory_pass(ops)
    memory_pass_s = time.perf_counter() - t0
    warm = warm_up(ops)
    walls, passes = timed_passes(ops, seconds)
    verdict = judge(reference, [warm] + passes)
    values = {"wall_s": statistics.median(walls),
              "setup_s": statistics.median(setup),
              "peak_mem_mb": peak / MB,
              "failed_frac": verdict["failed_frac"],
              "extremiser_err": verdict["extremiser_err"],
              "gauss_margin_err": verdict["gauss_margin_err"]}
    metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
    details = {"wall_s_samples": walls, "wall_s_quartiles": quartiles(walls),
               "setup_s_samples": setup, "memory_pass_s": memory_pass_s,
               "items_per_pass": len(reference)}
    return verdict, metrics, details


def _ratio(num, den):
    return num / den if den else 0.0


def traced_run(gd, ops, seconds):
    tracer = Tracer(gd)
    peak, reference = memory_pass(ops, tracer)
    peaks = {b: v / MB for b, v in tracer.peaks.items()}
    memory_counts = dict(tracer.counts)
    warm = warm_up(ops)
    untraced, plain = timed_passes(ops, seconds / 2.0)
    traced, runs = timed_passes(ops, seconds / 2.0, tracer)
    verdict = judge(reference, [warm] + plain + [r[0] for r in runs])

    counts = runs[0][1]
    exact = {k: v for k, v in counts.items() if not k.endswith("_s")}
    repeat = all({k: v for k, v in r[1].items() if not k.endswith("_s")}
                 == exact for r in runs)
    closure = [sum(r[2].values()) + r[3] - r[4] for r in runs]

    def self_s(bucket):
        return statistics.median(r[2].get(bucket, 0.0) for r in runs)

    def layer_s(layer):
        return statistics.median(
            sum(v for b, v in r[2].items() if b.split(".")[0] == layer)
            for r in runs)

    c = counts.get
    values = {
        "semigroups.ou_s": self_s("semigroups.ou"),
        "semigroups.ou_node_evals": c("semigroups.ou_node_evals", 0),
        "semigroups.ou2d_read_ratio": _ratio(
            c("semigroups.ou2d_read_points", 0),
            c("semigroups.ou2d_read_points", 0)
            + c("semigroups.ou2d_grid_points", 0)),
        "semigroups.ou_peak_mb": peaks.get("semigroups.ou", 0.0),
        "numerics.field_s": self_s("numerics.field"),
        "numerics.field_points": c("numerics.field_points", 0),
        "numerics.recheck_ratio": _ratio(c("numerics.recheck_points", 0),
                                         c("numerics.field_points", 0)),
        "numerics.gh_rules": c("numerics.gh_rules", 0),
        "numerics.gh_rule_s": self_s("numerics.gh_rule"),
        "families.eval_s": self_s("families.eval"),
        "families.mix_evals": c("families.mix_evals", 0),
        "flows.fp_s": self_s("flows.fp"),
        "flows.fp_kernel_cells": c("flows.fp_kernel_cells", 0),
        "flows.fp_peak_mb": peaks.get("flows.fp", 0.0),
        "flows.certify_s": self_s("flows.certify"),
        "flows.certify_matrix_s": self_s("flows.certify_matrix"),
        "functionals.quad_s": self_s("functionals.quad"),
        "inequalities.bl_s": self_s("inequalities.bl"),
        "inequalities.bl_cells": c("inequalities.bl_cells", 0),
        "inequalities.bl_peak_mb": peaks.get("inequalities.bl", 0.0),
        "inequalities.check_s": self_s("inequalities.check"),
        "hamilton_jacobi.hopf_lax_s": self_s("hamilton_jacobi.hopf_lax"),
        "hamilton_jacobi.hopf_lax_pairs": c("hamilton_jacobi.hopf_lax_pairs",
                                            0),
        "transport.coupling2d_s": self_s("transport.coupling2d"),
        "transport.coupling2d_peak_mb": peaks.get("transport.coupling2d", 0.0),
        "transport.brenier_s": self_s("transport.brenier"),
        "transport.brenier_calls": c("transport.brenier_calls", 0),
        "cli.items": c("cli.items", 0),
        "cli.pool_wait_s": statistics.median(
            r[1].get("cli.pool_wait_s", 0.0) for r in runs),
        "cli.overhead_s": self_s("cli.overhead"),
    }
    for layer in METRIC_LAYERS:
        values[f"{layer}.errors"] = c(f"{layer}.errors", 0)
        values[f"{layer}.self_s"] = layer_s(layer)
    values["trace.overhead_s"] = (statistics.median(traced)
                                  - statistics.median(untraced))
    values["trace.remainder_s"] = statistics.median(r[3] for r in runs)
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in PER_LAYER}

    details = {
        "untraced_wall_s_samples": untraced,
        "traced_wall_s_samples": traced,
        "memory_pass_peak_mb": peak / MB,
        "counts_repeat_across_traced_passes": repeat,
        "counts_match_memory_pass": exact == {
            k: v for k, v in memory_counts.items() if not k.endswith("_s")},
        "self_time_closure_s": closure,
        "bucket_self_s": {b: self_s(b) for b in sorted(runs[0][2])},
    }
    return verdict, metrics, details


def print_layer_table(metrics):
    for m in PER_LAYER:
        value, unit = metrics[m["name"]]
        print(f"  {m['name']:34s} {value:14.6g} {unit:6s} moves {m['moves']}"
              f" | mechanism {', '.join(m['mechanism'])}"
              + (f" | bypass {', '.join(m['bypass'])}" if m["bypass"] else ""))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gauss-deficit benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        gd = load_library()
    except MissingLibrary as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    ops = WORKLOADS[args.workload](gd, args.seed)
    pool = gd.cli._worker_count() if USES_POOL[args.workload] else 1
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace,
                      "machine": machine_facts(pool)}), flush=True)
    if args.trace:
        verdict, metrics, details = traced_run(gd, ops, args.seconds)
        print_layer_table(metrics)
    else:
        verdict, metrics, details = untraced_run(ops, args.seconds)
    print(json.dumps({"details": details}), flush=True)
    print(json.dumps({
        "correct": verdict["failed"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
