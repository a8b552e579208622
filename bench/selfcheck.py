"""Check the benchmark harness itself.

    python3 bench/selfcheck.py [--workloads W ...]

For each workload this runs `bench/run.py` once untraced and twice traced
(seed 1) and checks that:

* BENCHMARK.json names exactly the workloads and metrics the harness emits;
* the untraced run emits every end-to-end metric with its unit, and its
  outputs pass the correctness checks;
* the traced runs emit every per-layer metric with its unit, and every count
  metric repeats exactly between the two traced runs, between the passes of
  each, and in the single-thread memory pass;
* in every traced pass, the per-layer self times plus the time no span
  covers add up to the traced wall time.

Exit status 0 when every check passes, 1 otherwise.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = os.path.dirname(HERE)
SEED, SECONDS = 1, 1
CLOSURE_TOL_S = 1e-6


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", str(SECONDS),
           "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n"
                           f"{out.stderr[-2000:]}")
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


def check_result(result, expected_units, problems, where):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result.get("correct"):
        problems.append(f"{where}: correct is false ({result.get('failed')} "
                        f"of {result.get('attempted')} failed)")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected_units):
        problems.append(f"{where}: metrics differ: missing "
                        f"{sorted(set(expected_units) - set(metrics))}, extra "
                        f"{sorted(set(metrics) - set(expected_units))}")
    for name, m in metrics.items():
        if m.get("unit") != expected_units.get(name):
            problems.append(f"{where}: {name} has unit {m.get('unit')}")
        if not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            problems.append(f"{where}: {name} = {m.get('value')!r}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*", default=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    problems = []

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    layer_units = {m["name"]: m["unit"] for m in PER_LAYER}
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != layer_units:
        problems.append("BENCHMARK.json per_layer differs from layers.py")

    counts = [m["name"] for m in PER_LAYER if m["unit"] == "count"]
    for w in args.workloads:
        _, plain = run(w, 0)
        check_result(plain, END_TO_END, problems, f"{w} --trace 0")
        traced = []
        for attempt in (1, 2):
            details, result = run(w, 1)
            where = f"{w} --trace 1 (run {attempt})"
            check_result(result, layer_units, problems, where)
            if not details["counts_repeat_across_traced_passes"]:
                problems.append(f"{where}: counts differ between passes")
            if not details["counts_match_memory_pass"]:
                problems.append(f"{where}: counts differ in the memory pass")
            bad = [c for c in details["self_time_closure_s"]
                   if abs(c) > CLOSURE_TOL_S]
            if bad:
                problems.append(f"{where}: self times + remainder - wall = "
                                f"{bad} s")
            traced.append(result["metrics"])
        for name in counts:
            a, b = (t[name]["value"] for t in traced)
            if a != b:
                problems.append(f"{w}: count {name} is {a} then {b}")
        print(f"{w}: checked", flush=True)

    for p in problems:
        print("FAIL", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
