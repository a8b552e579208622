"""The four workloads, built from a seed, and their ground-truth scoring.

A workload is a list of operations.  An operation is one call into the
library (a CLI suite through `cli.run`, `cli.flow_trace`, or one
`preservation_trace`); it yields one or more *items*, each scored against
what is known exactly:

* an item fails when its asserted report has slack < -tol (the theorem says
  it holds), or, on `fp-flow`, when a certificate or universal margin is
  below -1e-4/beta; when an operation raises, all of its items fail;
* on an item where equality is proved, |slack| / max(1, |rhs|) is its
  extremiser error;
* a curvature hypothesis whose exact value is 0 (Gaussian or quadratic
  input) contributes |margin| to the Gaussian margin error.

Nothing is compared with stored outputs of an earlier version, so a fix to
the library never reads as a regression.
"""
from __future__ import annotations

import json
import traceback

import numpy as np

# item 0 of these suites is a case of equality
EQUALITY = {"verify-hc", "verify-reverse-hc", "verify-lsi", "verify-talagrand",
            "verify-general-lsi", "verify-matrix", "verify-hj",
            "verify-dual-talagrand"}

# hypotheses with exact value 0 on item 0, whose input is Gaussian or quadratic
GAUSS_HYPS = {
    "verify-hc": {"beta-semi-log-subharmonic", "beta-semi-log-concave"},
    "verify-lsi": {"beta-semi-log-subharmonic", "beta-semi-log-concave"},
    "verify-poincare": {"beta-semi-log-subharmonic", "beta-semi-log-concave"},
    "verify-beckner": {"beta-semi-log-subharmonic", "beta-semi-log-concave"},
    "verify-reverse-hc": {"beta-semi-log-subharmonic"},
    "verify-talagrand": {"semi-log-convex(beta)", "semi-log-concave(beta)"},
    "verify-general-lsi": {"V''>=K", "V''<=L", "(log v)''>=-K/beta"},
    "verify-matrix": {"hessian-convex-vs-B", "hessian-concave-vs-B"},
    "verify-hj": {"laplacian>=1-1/beta"},
    "verify-dual-talagrand": {"laplacian>=1-1/beta"},
}
# every verify-bl item pairs f1 = gamma_beta with a mixture f2
BL_HYPS = {"log f1'' >= -1/beta", "log f1'' <= -1/beta"}

FLOW_TIMES = (0.05, 0.2, 0.5, 1.0)


class Item:
    """One scored output: its exact numbers and what ground truth says of it."""

    __slots__ = ("key", "numbers", "failed", "raised", "extremiser_err",
                 "gauss_margins")

    def __init__(self, key, numbers, failed, raised=False,
                 extremiser_err=None, gauss_margins=()):
        self.key, self.numbers, self.failed = key, numbers, failed
        self.raised = raised
        self.extremiser_err = extremiser_err
        self.gauss_margins = list(gauss_margins)


class Operation:
    """A named call into the library that yields `size` items."""

    def __init__(self, name, size, call, score):
        self.name, self.size = name, size
        self._call, self._score = call, score

    def run(self):
        """Run the call; an exception is kept as its result, not raised."""
        try:
            return self._call()
        except Exception:  # the benchmark must keep running to count it
            return _Raised(traceback.format_exc())

    def score(self, raw):
        if isinstance(raw, _Raised):
            return [Item(f"{self.name}#{i}", raw.text, True, raised=True)
                    for i in range(self.size)]
        return self._score(raw)


class _Raised:
    def __init__(self, text):
        self.text = text


def _slack_failed(report, tol) -> bool:
    return report.asserted and not report.slack >= -tol


def _cli_op(gd, command, beta, count, seed):
    config = gd.cli.RunConfig(command=command, beta=beta, count=count,
                              seed=seed)
    name = f"{command}@beta={beta}"

    def score(bundle):
        items = []
        for i, r in enumerate(bundle.reports):
            numbers = json.dumps(r.to_dict(), sort_keys=True)
            ext = None
            if i == 0 and (command in EQUALITY
                           or (command == "verify-els" and beta <= 1)):
                ext = abs(r.slack) / max(1.0, abs(r.rhs))
            names = BL_HYPS if command == "verify-bl" else (
                GAUSS_HYPS.get(command, set()) if i == 0 else set())
            margins = [h.margin for h in r.hypotheses if h.name in names]
            items.append(Item(f"{name}#{i}", numbers,
                              _slack_failed(r, config.tol),
                              extremiser_err=ext, gauss_margins=margins))
        return items

    return Operation(name, count, lambda: gd.cli.run(config), score)


def _flow_trace_op(gd, beta, seed):
    config = gd.cli.RunConfig(command="flow-trace", beta=beta, seed=seed)
    name = f"flow-trace@beta={beta}"

    def score(raw):
        rows, verdict = raw
        return [Item(name, repr((rows, verdict)), "violates" in verdict)]

    return Operation(name, 1, lambda: gd.cli.flow_trace(config), score)


def _preservation_op(gd, name, v0, beta, kind, gaussian):
    tol = 1e-4 / beta

    def score(raw):
        margins, universal = (np.asarray(a, float) for a in raw)
        both = np.concatenate([margins, universal])
        failed = not bool(np.all(both >= -tol))
        return [Item(name, repr(both.tolist()), failed,
                     gauss_margins=margins.tolist() if gaussian else ())]

    return Operation(name, 1, lambda: gd.flows.preservation_trace(
        v0, beta, kind, FLOW_TIMES), score)


# ---------------------------------------------------------------------------
# the workloads


# matrix-2d runs items 0-2 at CLI seed 0 whatever --seed is.  The peak of the
# talagrand item (item 2) grows with the random number of mixture components:
# 1013.6 MB at seed 0 but up to 1762 MB over seeds 0-8 (see README.md), an
# interquartile spread of about 0.3 of the median, wider than any bound the
# benchmark may set.  Item 0, 12 s of the 14 s pass, is seed-free anyway.
MATRIX_SEED = 0


def matrix_2d(gd, seed):
    return [_cli_op(gd, "verify-matrix", 2.0, 3, MATRIX_SEED)]


def grid_kernels(gd, seed):
    return [_cli_op(gd, "verify-bl", 2.0, 3, seed),
            _cli_op(gd, "verify-hj", 2.0, 4, seed),
            _cli_op(gd, "verify-dual-talagrand", 2.0, 4, seed)]


GH_SUITES = ("verify-hc", "verify-reverse-hc", "verify-lsi", "verify-els",
             "verify-talagrand", "verify-poincare")
GH_COUNT = 48
# Beckner is the only 1-D quadrature ou_apply and costs ~20x an item of the
# other suites.  At beta = 2 its peak memory grows with the random number k of
# mixture components (1..8) of its input: 61 MB to 165 MB with two items.  24
# random items reach k = 8 in all but 4 % of seeds, so peak_mem_mb reads the
# k = 8 figure steadily, while Beckner stays under half of the pass.
BECKNER_COUNT = {2.0: 25, 0.5: 4}


def gh_1d(gd, seed):
    ops = []
    for beta in (2.0, 0.5):
        ops += [_cli_op(gd, c, beta, GH_COUNT, seed) for c in GH_SUITES]
        ops.append(_cli_op(gd, "verify-beckner", beta, BECKNER_COUNT[beta],
                           seed))
    ops.append(_cli_op(gd, "verify-general-lsi", 2.0, GH_COUNT, seed))
    ops.append(_flow_trace_op(gd, 2.0, seed))
    return ops


FLOW_LOGCONCAVE = 2
FLOW_FP = 20


def _untagged_gaussian(gd, grid, beta):
    """gamma_beta as a closure field without a family tag: the grid kernel runs."""
    q = gd.LogQuad.gaussian(beta)
    return gd.GridField.from_callable(grid, q.__call__, log_fn=q.log_at)


def fp_flow(gd, seed):
    grid = gd.default_grid()
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(FLOW_LOGCONCAVE):
        v0 = gd.make_logconcave_input(rng, 0.5, grid)
        ops.append(_preservation_op(gd, f"logconcave@0.5#{i}", v0, 0.5,
                                    "concave", False))
    for i in range(FLOW_FP):
        v0 = gd.make_fp_input(rng, 2.0, grid)
        ops.append(_preservation_op(gd, f"fp@2#{i}", v0, 2.0, "convex", False))
    for beta, kind in ((0.5, "concave"), (2.0, "convex")):
        ops.append(_preservation_op(gd, f"gaussian@{beta}",
                                    _untagged_gaussian(gd, grid, beta), beta,
                                    kind, True))
    return ops


WORKLOADS = {
    "matrix-2d": matrix_2d,
    "grid-kernels": grid_kernels,
    "gh-1d": gh_1d,
    "fp-flow": fp_flow,
}
# fp-flow calls preservation_trace directly: no CLI pool
USES_POOL = {"matrix-2d": True, "grid-kernels": True, "gh-1d": True,
             "fp-flow": False}
