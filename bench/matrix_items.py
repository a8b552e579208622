"""Time `verify-matrix` items one by one, outside the gated benchmark runs.

The gated `matrix-2d` workload runs items 0-2 at seed 0 only.  Item 3 is an
hc item on a product of two FP mixtures whose cost grows with the number of
mixture components: at seed 0 it takes longer than a whole benchmark run.
The peak memory of the talagrand item 2 also grows with the component count,
so it moves with the seed.  This script runs the chosen items of the chosen
seeds one at a time on one thread and prints one JSON line per item (with
its tracemalloc peak under --peak), then the machine.

    python3 bench/matrix_items.py [--items 0 1 2 3] [--seeds 0] [--peak]
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
import tracemalloc

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from machine import load_library, machine_facts  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--items", type=int, nargs="+", default=[0, 1, 2, 3])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("--peak", action="store_true",
                    help="run each item under tracemalloc and report its peak")
    args = ap.parse_args(argv)
    load_library()
    from gauss_deficit import cli

    for seed in args.seeds:
        config = cli.RunConfig(command="verify-matrix", beta=2.0,
                               count=max(args.items) + 1, seed=seed)
        tasks, _ = cli._SUITES["verify-matrix"](config)
        for i in args.items:
            if args.peak:
                tracemalloc.start()
            t0 = time.perf_counter()
            report = tasks[i]()
            line = {"seed": seed, "item": i,
                    "which": report.params.get("which"),
                    "seconds": round(time.perf_counter() - t0, 3),
                    "slack": report.slack}
            if args.peak:
                line["peak_mb"] = round(
                    tracemalloc.get_traced_memory()[1] / 2**20, 1)
                tracemalloc.stop()
            print(json.dumps(line), flush=True)
    print(json.dumps({"machine": machine_facts(pool_size=1)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
