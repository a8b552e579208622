"""Smoke test of the benchmark harness in bench/: one short traced run.

It fails when the library and the harness drift apart, for instance when
the suite table `cli._SUITES` or the `GridField` attributes that the traced
run hooks change.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


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
