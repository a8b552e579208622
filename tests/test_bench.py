"""Smoke test of the benchmark harness in bench/: one short traced run,
and a guard on the library names the harness wraps.

It fails when the library and the harness drift apart, for instance when
the suite table `cli._SUITES` or the `GridField` attributes that the traced
run hooks change.  A bucket or a hook on a deleted function never fires, so
the traced runs still pass while its per-layer figure reads 0: the guard
fails on such a name unless STALE lists it, and on an entry of STALE that
resolves again.
"""
import importlib
import inspect
import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

# "layer.qualname" of the bench names that resolve to no library function.
# bench/ is left as it is until ROADMAP item 11 replaces its tracer, so
# their figures read 0 until then.
STALE = {
    "semigroups.ou_apply", "semigroups.check_commutation",
    "semigroups.dilation_apply", "semigroups._ou_values_2d",
    "flows.certify", "flows._kernel_quadrature_field",
    "flows.fp_class_member", "functionals.lp_norm_gaussian",
    "transport.w2_sq_coupling_2d", "families.Mixture.log_at",
    "families.Mixture._posterior", "numerics.GridField._check_agreement",
    "hamilton_jacobi.HJField.extended",
}


def traced_run(workload):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "0",
         "--trace", "1"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0


def test_matrix_workload_traced_run():
    traced_run("matrix-2d")


def test_grid_kernels_traced_run():
    # guards the hooks on hopf_lax and brascamp_lieb_check
    traced_run("grid-kernels")


def test_gh_1d_traced_run():
    # guards the hook on semigroups._ou_closures_1d: the rule is its third
    # argument and it returns a tuple of closures
    traced_run("gh-1d")


def test_fp_flow_traced_run():
    # fp-flow calls flows.preservation_trace outside the CLI
    traced_run("fp-flow")


def _bench_names():
    """(name in bench/, "layer.qualname" it stands for) of every key of
    BUCKETS and PRIVATE in bench/layers.py and of HOOKS in bench/spans.py.
    A BUCKETS key is a short name, matched against every function and
    method of its layer, as bench/layers.bucket_of matches it."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    try:
        layers = importlib.import_module("layers")
        spans = importlib.import_module("spans")
    finally:
        sys.path.pop(0)
    names = [(f"BUCKETS[{layer!r}][{name!r}]", f"{layer}.{name}")
             for layer, table in layers.BUCKETS.items() for name in table]
    names += [(f"PRIVATE[{layer!r}]: {qual}", f"{layer}.{qual}")
              for layer, quals in layers.PRIVATE.items() for qual in quals]
    names += [(f"HOOKS[{key!r}]", key.replace(":", ".", 1))
              for key in spans.HOOKS]
    return names


def _resolves(name: str, short: bool) -> bool:
    """Whether "layer.qualname" is a function or method written in the
    library module ``layer``; a short name may be any method's."""
    layer, qual = name.split(".", 1)
    module = importlib.import_module(f"gauss_deficit.{layer}")
    if short:
        owners = [module] + [obj for obj in vars(module).values()
                             if inspect.isclass(obj)
                             and obj.__module__ == module.__name__]
        found = [getattr(owner, qual, None) for owner in owners]
    else:
        obj = module
        for part in qual.split("."):
            obj = getattr(obj, part, None)
        found = [obj]
    return any(inspect.isroutine(f)
               and getattr(f, "__module__", None) == module.__name__
               for f in found)


def test_bench_names_resolve_unless_stale():
    unresolved = {}
    for where, name in _bench_names():
        if not _resolves(name, where.startswith("BUCKETS")):
            unresolved.setdefault(name, where)
    new = {name: where for name, where in unresolved.items()
           if name not in STALE}
    assert not new, f"bench names on no library function: {new}"
    gone = STALE - set(unresolved)
    assert not gone, f"STALE entries that resolve or bench/ dropped: {gone}"
