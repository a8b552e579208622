"""
Command-line front end: named verification suites, parameter sweeps and
machine-readable reports.

Every subcommand builds a list of check items, runs them in index order on
the calling thread and assembles a :class:`ReportBundle`; the random input
of item i depends only on (seed, i).  Each :class:`RunConfig` field is a
flag of every subcommand (``--grid-n`` for ``grid_n``) and a config-file
key, read as the type of its default; a flag beats the file.  Output is
JSON (the full bundle) or CSV (flat per-check rows), chosen by ``--format``
or the output file extension.  Exit status: 0 when every report passes
(DeficitReport.passes at ``tol``) and every item the suite names as a case of
equality has |slack| <= ``tol``, 1 when one fails (the report is still
written), 2 on usage errors, an unwritable ``--out`` among them, and on the
package's own errors (a parameter, integrand, positivity or truncation
failure, such as verify-hj at beta <= 1), which leave no report.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass, fields
from typing import List, Optional

import numpy as np
from numpy.random import default_rng  # at import: numpy defers it to first use

from .numerics import (EvaluationError, Grid1D, GridField, ParameterError,
                       PositivityError, TruncationError, gauss_hermite_rule)
from .families import field_from_family, gaussian_field, symmetric_mixture
from .semigroups import ExponentTriple
from .flows import curvature, fp_evolve
from .functionals import (_check_ratio_bounded, q_functional, sharp_constant,
                          tilt)
from .reports import DeficitReport
from .inequalities import (beckner_check, brascamp_lieb_check,
                           counterexample_mixture,
                           counterexample_superharmonic, els_eigen_check,
                           hc_check, lsi_check, make_fp_input,
                           make_logconcave_input, make_talagrand_input,
                           matrix_check, poincare_check,
                           sample_reverse_triple)
from .transport import (PotentialSpec, _log_mass, general_lsi_deficit,
                        talagrand_deficit)
from .hamilton_jacobi import (HJField, beta_of_a, dual_talagrand_check,
                              hj_hc_check, quadratic_datum)

COMMANDS = (
    "verify-hc", "verify-reverse-hc", "verify-lsi", "verify-els",
    "verify-talagrand", "verify-matrix", "verify-poincare", "verify-beckner",
    "verify-bl", "verify-hj", "verify-dual-talagrand", "verify-general-lsi",
    "flow-trace", "sharp-constants", "counterexample-mixture",
    "counterexample-superharmonic",
)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved run: subcommand, parameters and output routing."""

    command: str
    beta: float = 2.0
    p: float = 2.0
    q: float = 4.0
    tau: float = 1.0
    a: float = 1.0
    count: int = 10
    seed: int = 0
    grid_lo: float = -12.0
    grid_hi: float = 12.0
    grid_n: int = 4097
    gh_nodes: int = 96
    tol: float = 1e-5
    out: Optional[str] = None
    format: Optional[str] = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ParameterError(f"unknown command {self.command!r}")
        for name in ("beta", "p", "q", "tau", "a", "grid_lo", "grid_hi",
                     "tol"):
            if not np.isfinite(getattr(self, name)):
                raise ParameterError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if self.beta <= 0:
            raise ParameterError(f"beta must be positive, got {self.beta}")
        if self.tol < 0:
            raise ParameterError(f"tol must be nonnegative, got {self.tol}")
        if self.count < 1:
            raise ParameterError("count must be >= 1")
        if self.seed < 0:
            raise ParameterError(f"seed must be nonnegative, got {self.seed}")
        self.grid()  # raises on bad bounds or size
        try:
            self.rule()  # raises on a bad node count or bad weights
        except ParameterError as exc:
            raise ParameterError(f"gh_nodes={self.gh_nodes}: {exc}") from None
        if self.format not in (None, "json", "csv"):
            raise ParameterError(f"unknown format {self.format!r}")

    def grid(self) -> Grid1D:
        return Grid1D(self.grid_lo, self.grid_hi, self.grid_n)

    def rule(self):
        return gauss_hermite_rule(self.gh_nodes)

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_sources(command: str, config_path: Optional[str],
                     overrides: dict) -> "RunConfig":
        """Config-file values first, command-line flags win."""
        values = {}
        if config_path:
            values.update(_read_config_file(config_path))
        values.update({k: v for k, v in overrides.items() if v is not None})
        unknown = set(values) - set(_casts())
        if unknown:
            raise ParameterError(
                f"unknown config keys: {', '.join(sorted(unknown))}")
        return RunConfig(command=command, **values)


def _casts() -> dict:
    """Each RunConfig parameter and the type its text is read as: its
    default's, str for the options without one."""
    return {f.name: str if f.default is None else type(f.default)
            for f in fields(RunConfig) if f.name != "command"}


def _read_config_file(path: str) -> dict:
    """Flat ``key=value`` lines; '#' comments and blank lines ignored."""
    casts = _casts()
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(
                    f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key == "command":
                raise ParameterError("command is not a config-file key")
            if key not in casts:
                raise ParameterError(f"unknown config keys: {key}")
            values[key] = casts[key](val)
    return values


# ---------------------------------------------------------------------------
# report bundles


@dataclass(frozen=True)
class ReportBundle:
    """Config echo + per-check reports + summary + wall-clock timing."""

    config: dict
    reports: List[DeficitReport]
    summary: dict
    timing_ms: float

    def to_dict(self):
        return {"config": dict(self.config),
                "reports": [r.to_dict() for r in self.reports],
                "summary": dict(self.summary),
                "timing_ms": self.timing_ms}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["index", "inequality", "lhs", "rhs", "sharp_constant",
                    "slack", "direction", "hypotheses_pass", "holds"])
        for i, r in enumerate(self.reports):
            w.writerow([i, r.inequality, repr(r.lhs), repr(r.rhs),
                        repr(r.sharp_constant), repr(r.slack), r.direction,
                        r.asserted, r.holds])
        return buf.getvalue()

    @property
    def all_pass(self) -> bool:
        return self.summary["failed"] == 0


def _summarize(reports, extremiser_indices, tol):
    # a case of equality also fails when |slack| > tol, on either side
    passed = sum(r.passes(tol) and (i not in extremiser_indices
                                    or abs(r.slack) <= tol)
                 for i, r in enumerate(reports))
    summary = {
        "count": len(reports),
        "passed": passed,
        "failed": len(reports) - passed,
        "asserted": sum(r.asserted for r in reports),
    }
    if extremiser_indices:
        summary["max_abs_extremiser_slack"] = max(
            abs(reports[i].slack) for i in extremiser_indices)
    # the beta each item ran at, which need not be --beta (verify-reverse-hc)
    betas = sorted({float(r.params["beta"]) for r in reports
                    if "beta" in r.params})
    if betas:
        summary["betas"] = betas
    return summary


# ---------------------------------------------------------------------------
# the suite table: a row makes item i of its suite, a DeficitReport, from
# the config, and names the items that are cases of equality.  Randomness is
# drawn from a per-item generator seeded by (seed, index), so item i depends
# only on (seed, i), not on the count or on the items before it.


def _item_rng(config: RunConfig, index: int) -> np.random.Generator:
    return default_rng([config.seed, index])


def _density(config: RunConfig, index: int) -> GridField:
    """gamma_beta at item 0, the extremiser; else a random input, FP(beta)
    for beta >= 1 and beta-semi-log-concave below."""
    if index == 0:
        return gaussian_field(config.grid(), config.beta)
    rng = _item_rng(config, index)
    if config.beta >= 1:
        return make_fp_input(rng, config.beta, config.grid())
    return make_logconcave_input(rng, config.beta, config.grid())


def _forward_triple(config: RunConfig) -> ExponentTriple:
    if not (1 < config.p < config.q):
        raise ParameterError("forward regime needs 1 < p < q")
    return ExponentTriple(config.p, config.q)


def _beckner_p(config: RunConfig) -> float:
    return config.p if 1.0 < config.p < 2.0 else 1.5


def _reverse_hc_item(config: RunConfig, i: int):
    rng = _item_rng(config, i)
    grid = config.grid()
    same_sign = (i % 2 == 0)
    triple = sample_reverse_triple(rng, same_sign)
    if same_sign:
        beta = config.beta if config.beta > 1 else 2.0
        v = (gaussian_field(grid, beta) if i == 0
             else make_fp_input(rng, beta, grid))
    else:
        beta = config.beta if config.beta < 1 else 0.5
        v = make_logconcave_input(rng, beta, grid)
    return hc_check(v, beta, triple, config.rule())


def _talagrand_item(config: RunConfig, i: int):
    grid = config.grid()
    v = (gaussian_field(grid, config.beta) if i == 0 else
         make_talagrand_input(_item_rng(config, i), config.beta, grid))
    return talagrand_deficit(v, config.beta, config.rule())


def _matrix_item(config: RunConfig, i: int):
    which = ("hc", "lsi", "talagrand")[i % 3]
    triple = _forward_triple(config) if which == "hc" else None
    rng = _item_rng(config, i)
    grid = config.grid()
    b1 = config.beta
    b2 = config.beta if i == 0 else float(
        rng.uniform(1.2, 4.0) if config.beta >= 1 else rng.uniform(0.2, 0.9))
    if i == 0:
        v1 = gaussian_field(grid, b1)
        v2 = gaussian_field(grid, b2)
    elif config.beta >= 1:
        v1 = make_fp_input(rng, b1, grid)
        v2 = make_fp_input(rng, b2, grid)
    else:
        v1 = make_logconcave_input(rng, b1, grid)
        v2 = make_logconcave_input(rng, b2, grid)
    return matrix_check(v1, v2, np.diag([b1, b2]), which=which,
                        rule=config.rule(), triple=triple)


def _test_function(config: RunConfig, index: int, power: float) -> GridField:
    """f = (v/gamma)^{1/power} so that gamma f^power = v inherits the
    curvature certificate of the generated density v; at item 0, v =
    gamma_beta, f is the closed form, so its certificate is exact."""
    return tilt(_density(config, index), 1.0 / power,
                1.0 / power).field(config.grid())


def _beckner_item(config: RunConfig, i: int):
    p = _beckner_p(config)
    return beckner_check(_test_function(config, i, p), p, config.beta,
                         config.rule())


def _bl_item(config: RunConfig, i: int):
    triple = _forward_triple(config)
    grid = config.grid()
    if i == 0:
        f2 = symmetric_mixture(0.8, 1.0)
    else:
        rng = _item_rng(config, i)
        f2 = symmetric_mixture(float(rng.uniform(0.2, 2.0)),
                               float(rng.uniform(0.6, 1.6)))
    return brascamp_lieb_check(gaussian_field(grid, config.beta),
                               field_from_family(grid, f2), triple,
                               config.beta, config.rule())


def _perturbed_quadratic(config: RunConfig, index: int,
                         a: float) -> HJField:
    """The quadratic extremiser datum plus a small smooth convex bump,
    c log cosh(x - m), with its exact f'' = base f'' + c sech^2(x - m)."""
    base = quadratic_datum(a, beta_of_a(a, config.beta), config.grid())
    if index == 0:
        return base
    rng = _item_rng(config, index)
    c = float(rng.uniform(0.0, 0.05))
    m = float(rng.uniform(-1.0, 1.0))
    return HJField(
        GridField.from_callable(
            config.grid(), lambda y: base.f(y) + c * np.log(np.cosh(y - m))),
        laplacian=lambda y: base.laplacian(y) + c / np.cosh(y - m) ** 2)


def _general_lsi_item(config: RunConfig, i: int):
    grid = config.grid()
    rng = _item_rng(config, i)
    omega = 1.0 if i == 0 else float(rng.uniform(0.8, 1.5))
    eps = 0.0 if i == 0 else float(rng.uniform(0.0, 0.05)) * omega

    def potential(x):
        return 0.5 * omega * x * x + eps * np.log(np.cosh(x))

    # the reference e^{-V} with its exact -V' and -V''
    ref = GridField.from_callable(
        grid, log_fn=lambda x: -potential(np.asarray(x, float)),
        dlog_fn=lambda x: -(omega * x + eps * np.tanh(x)),
        d2log_fn=lambda x: -(omega + eps / np.cosh(x) ** 2))
    pot = PotentialSpec(ref, K=omega, L=omega + eps)
    # v must be K/beta-semi-log-convex: take the e^{-V/beta_v} member
    # with beta_v >= beta L / K, (log v)'' = -(omega + eps sech^2)/beta_v
    beta_v = config.beta * (pot.L / pot.K) * (1.0 if i == 0 else
                                              float(rng.uniform(1.0, 1.3)))
    lv = ref.grid_log() / beta_v
    logz = _log_mass(lv, grid.spacing)
    vf = GridField.from_callable(
        grid, log_fn=lambda x: ref.log(x) / beta_v - logz,
        dlog_fn=lambda x: ref.dlog(x) / beta_v,
        d2log_fn=lambda x: ref.analytic_d2log(x) / beta_v,
        nodes=(lv - logz, ref.grid_d2log() / beta_v))
    return general_lsi_deficit(vf, pot, config.beta)


def _constant_rows(config: RunConfig):
    """(name, keyword arguments) of each constant sharp-constants reports."""
    triple = _forward_triple(config)
    rows = []
    for beta in [0.25, 0.5, 2.0, 4.0] if config.beta == 2.0 else [config.beta]:
        rows += [("hc_ratio", dict(beta=beta, triple=triple)),
                 ("lsi_gauss", dict(beta=beta)),
                 ("dn", dict(beta=beta)),
                 ("talagrand_gauss", dict(beta=beta)),
                 ("mikulincer", dict(beta=beta)),
                 ("beckner_b", dict(beta=beta, p=_beckner_p(config)))]
        if 1.0 + config.tau * (1.0 - 1.0 / beta) > 0:
            rows.append(("hj_t", dict(tau=config.tau, beta=beta)))
    return rows + [("bl_h", dict(c1=1.0 / triple.p, c2=1.0 - 1.0 / triple.q,
                                 s=triple.s))]


def _constant_item(config: RunConfig, i: int):
    """A constant's report: its value on each side, its arguments as
    params, the triple as p, q, s, and the dimension n = 1 of every
    constant that takes one."""
    name, kw = _constant_rows(config)[i]
    value = sharp_constant(name, **kw)
    params = dict(kw)
    if "triple" in params:
        t = params.pop("triple")
        params.update(p=t.p, q=t.q, s=t.s)
    if name != "bl_h":
        params["n"] = 1
    return DeficitReport(name, value, value, value, params=params)


def _mixture_shifts(config: RunConfig):
    return [config.a] if config.a != 1.0 else [0.0, 1.0, 2.0, 4.0]


def _suite(item, extremisers=lambda config: [0],
           count=lambda config: config.count):
    """The builder of a table row: config -> (tasks, extremiser indices),
    the tasks item(config, i) for i < count(config)."""
    def build(config: RunConfig):
        return ([lambda i=i: item(config, i) for i in range(count(config))],
                extremisers(config))
    return build


def _no_extremiser(config: RunConfig):
    return []


_SUITES = {
    "verify-hc": _suite(lambda c, i: hc_check(
        _density(c, i), c.beta, _forward_triple(c), c.rule())),
    "verify-reverse-hc": _suite(_reverse_hc_item),
    "verify-lsi": _suite(lambda c, i: lsi_check(_density(c, i), c.beta,
                                                c.rule())),
    # gamma_beta attains equality only when the correction term is active
    "verify-els": _suite(lambda c, i: els_eigen_check(_density(c, i),
                                                      c.rule()),
                         lambda c: [0] if c.beta <= 1 else []),
    "verify-talagrand": _suite(_talagrand_item),
    "verify-matrix": _suite(_matrix_item),
    # no item of these two or of verify-bl is a case of equality
    "verify-poincare": _suite(lambda c, i: poincare_check(
        _test_function(c, i, 2.0), c.beta, c.rule()), _no_extremiser),
    "verify-beckner": _suite(_beckner_item, _no_extremiser),
    "verify-bl": _suite(_bl_item, _no_extremiser),
    "verify-hj": _suite(lambda c, i: hj_hc_check(
        _perturbed_quadratic(c, i, c.a), c.a, c.tau, c.beta, c.rule())),
    "verify-dual-talagrand": _suite(lambda c, i: dual_talagrand_check(
        _perturbed_quadratic(c, i, 0.02), c.tau, c.beta, c.rule())),
    "verify-general-lsi": _suite(_general_lsi_item),
    "sharp-constants": _suite(_constant_item, _no_extremiser,
                              lambda c: len(_constant_rows(c))),
    "counterexample-mixture": _suite(
        lambda c, i: counterexample_mixture(_mixture_shifts(c)[i], c.grid(),
                                            c.rule()),
        _no_extremiser, lambda c: len(_mixture_shifts(c))),
    "counterexample-superharmonic": _suite(
        lambda c, i: counterexample_superharmonic((0.1, 0.5)[i]),
        _no_extremiser, lambda c: 2),
}


# ---------------------------------------------------------------------------
# execution


def _worker_count() -> int:
    """Items run on the calling thread: one worker."""
    return 1


def run(config: RunConfig) -> ReportBundle:
    """Execute the configured suite, item by item in index order on the
    calling thread, and assemble the report bundle."""
    if config.command == "flow-trace":
        raise ParameterError("flow-trace emits a CSV series; use flow_trace()")
    start = time.perf_counter()
    tasks, extremisers = _SUITES[config.command](config)
    results = [task() for task in tasks]
    timing_ms = 1000.0 * (time.perf_counter() - start)
    summary = _summarize(results, extremisers, config.tol)
    return ReportBundle(config.to_dict(), results, summary, timing_ms)


def flow_trace(config: RunConfig):
    """Q(t) along the beta-flow of an FP(beta) input, beta >= 1: rows (t, Q,
    convexity certificate margin, mass) plus a monotonicity verdict, for
    1 < p < q or q < p < 0 (Q non-decreasing in both): no step of Q may
    fall by more than tol max(1, max |Q|).  Each snapshot v_t is evolved
    once; Q(t) = ||P_s[(v_t/gamma)^{1/p}]||_q^q comes from it (q_functional).
    """
    grid = config.grid()
    rule = config.rule()
    rng = _item_rng(config, 0)
    if config.beta < 1:
        raise ParameterError("flow-trace needs beta >= 1 (FP-class input)")
    v0 = make_fp_input(rng, config.beta, grid)
    if not (1.0 < config.p < config.q or config.q < config.p < 0.0):
        raise ParameterError("flow-trace needs 1 < p < q or q < p < 0")
    triple = ExponentTriple(config.p, config.q)
    _check_ratio_bounded(v0, config.beta)
    expect = "non-decreasing"
    times = np.geomspace(1e-3, 1.0, 8)
    rows = []
    for t in times:
        vt = fp_evolve(v0, config.beta, float(t))
        qt = q_functional(vt, triple, rule)
        margin = curvature(vt)[0] + 1.0 / config.beta
        rows.append((float(t), qt, margin, vt.grid_mass))
    qs = np.array([r[1] for r in rows])
    scale = max(1.0, float(np.max(np.abs(qs))))
    monotone = bool(np.all(np.diff(qs) >= -config.tol * scale))
    verdict = expect if monotone else f"violates {expect}"
    return rows, verdict


def _flow_trace_csv(rows, verdict) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["t", "Q", "certificate_margin", "mass"])
    for r in rows:
        w.writerow([repr(v) for v in r])
    w.writerow(["verdict", verdict, "", ""])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# argument parsing and entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gauss-deficit",
        description="Verify sharp Gaussian functional inequalities and "
                    "their deficit bounds numerically.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        for key, cast in _casts().items():
            p.add_argument("--" + key.replace("_", "-"), type=cast,
                           default=None, dest=key)
        p.add_argument("--config", type=str, default=None)
    return parser


def _resolve_format(config: RunConfig) -> str:
    if config.format:
        return config.format
    if config.out and config.out.lower().endswith(".csv"):
        return "csv"
    return "json"


def _emit(text: str, out: Optional[str]):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config")}
    try:
        config = RunConfig.from_sources(args.command, args.config, overrides)
    except (ParameterError, OSError, ValueError) as exc:
        print(f"gauss-deficit: {exc}", file=sys.stderr)
        return 2

    try:
        if config.command == "flow-trace":
            rows, verdict = flow_trace(config)
            text = _flow_trace_csv(rows, verdict)
            passed = "violates" not in verdict
        else:
            bundle = run(config)
            text = (bundle.to_json() if _resolve_format(config) == "json"
                    else bundle.to_csv())
            passed = bundle.all_pass
    except (ParameterError, EvaluationError, PositivityError,
            TruncationError) as exc:
        # the package's own errors (IntegrabilityError is an
        # EvaluationError): no report could be written
        print(f"gauss-deficit: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(text, config.out)
    except OSError as exc:  # an unwritable --out is a usage error
        print(f"gauss-deficit: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
