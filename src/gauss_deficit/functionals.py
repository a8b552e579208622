"""
Entropy, Fisher information, Gaussian L^p norms, the Gaussian tilt, the
hypercontractive norm, the flow functional Q(t), and every explicit sharp
constant.

The tilt w = v^r gamma^{-a} is the only code that writes out the reference
measure gamma; every deficit checker reaches v/gamma and its powers through
it.  entropy_fisher is the one reader of Ent_gamma, and log_ou_norm the
one reader of ||P_s w||_{L^q(gamma)}, every mass int v dx included:
Gauss-Hermite unless w's tag gives it in closed form; log_ou_pairing reads
int u P_s w dgamma by Gauss-Hermite alone.  Every field is read
off its nodes through its exact closures.  Norms are assembled in log space
(log-sum-exp) so that negative and large exponents are handled uniformly.
"""
from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .families import LogQuad, field_from_family
from .numerics import (EvaluationError, Grid1D, GridField, ParameterError,
                       PositivityError, QuadratureRule, interior_peak,
                       logsumexp)
from .semigroups import (ExponentTriple, IntegrabilityError, _ou_closures_1d,
                         beta_s)


@dataclass(frozen=True)
class EntFisher:
    entropy: float
    fisher: float


# ---------------------------------------------------------------------------
# entropy and Fisher information


def entropy_fisher(f: GridField | Tilt, rule: QuadratureRule) -> EntFisher:
    """Ent_gamma(f) and I_gamma(f) for a relative density f (w.r.t. gamma).

    Ent = int f log f dgamma - F log F with F = int f dgamma;
    I   = int f |grad log f|^2 dgamma  (the stable form of int |grad f|^2/f).
    ``f`` is a GridField or a Tilt: log f and (log f)' at the quadrature
    nodes are read once each, and f = exp(log f); a field without a log
    closure is read through its value closure, refused where f < 0.
    """
    z, w = rule.nodes, rule.weights
    if isinstance(f, GridField) and f.analytic_log is None:
        with np.errstate(divide="ignore", invalid="ignore"):
            lf = np.log(f(z))  # NaN where f < 0
        if np.any(np.isnan(lf)):
            raise PositivityError("entropy requires f >= 0")
    else:
        lf = np.asarray(f.log(z), float)
    fv = np.exp(lf)
    mass = float(fv @ w)
    # f log f and F log F are 0 where f and F are; e^lf is 0 below -746
    ent = float((fv * np.maximum(lf, -746.0)) @ w) - mass * np.log(mass or 1)
    dl = np.asarray(f.dlog(z), float)
    return EntFisher(ent, float((fv * dl * dl) @ w))


# ---------------------------------------------------------------------------
# Gaussian L^p norms


def _log_lp(lv, r: float, logw) -> float:
    """log ||f||_{L^r(gamma)} from log f at a rule's nodes (``lv``) and its
    log weights; for |r| < 1, where 1/r magnifies the rounding, the m terms
    at the top t stay out of the sum s of the rest: log1p(s/m) + log m + t."""
    lt = r * np.asarray(lv, float) + logw
    top = lt.max()
    if np.isnan(top):
        raise EvaluationError("log integrand is NaN at a quadrature node")
    if not np.isfinite(top):
        raise IntegrabilityError("|f|^r not integrable against gamma")
    if abs(r) >= 1:
        return float(logsumexp(lt) / r)
    at_top = lt == top
    s = np.exp(lt - top, out=np.zeros_like(lt), where=~at_top).sum()
    m = np.count_nonzero(at_top)
    return float((np.log1p(s / m) + np.log(m) + top) / r)


# ---------------------------------------------------------------------------
# sharp constants


def _hc_ratio(beta: float, triple: ExponentTriple, n: int = 1) -> float:
    bs = beta_s(beta, triple)
    if bs <= 0:
        raise ParameterError("beta_s <= 0: deficit constant undefined")
    return float(beta ** (n / (2 * triple.p_conj))
                 * bs ** (-n / (2 * triple.q_conj)))


def _dn(beta: float, n: int = 1) -> float:
    return 0.5 * n * (np.log(beta) - 1.0 + 1.0 / beta)


def _lsi_gauss(beta: float, n: int = 1) -> float:
    return -_dn(beta, n)


def _talagrand_gauss(beta: float, n: int = 1) -> float:
    return float(n * (1.0 + 0.5 * np.log(beta) - np.sqrt(beta)))


def _mikulincer(beta: float, n: int = 1) -> float:
    if beta == 1.0:
        return 0.0  # analytic limit of the ratio
    return float(-n * (2 * (1 - beta) + (beta + 1) * np.log(beta))
                 / (2 * (beta - 1)))


def _hj_t(tau: float, beta: float, n: int = 1) -> float:
    if tau <= 0 or beta <= 0:
        raise ParameterError("tau and beta must be positive")
    if beta == 1.0:
        return 1.0  # analytic limit
    d = tau * (1.0 - 1.0 / beta)
    if 1.0 + d <= 0:
        raise ParameterError("T(tau, beta) undefined: 1 + tau(1-1/beta) <= 0")
    return float((np.exp(-1.0) * (1.0 + d) ** (1.0 / d))
                 ** (0.5 * n * (1.0 - 1.0 / beta)))


def _beckner_b(p: float, beta: float, n: int = 1) -> float:
    pc = p / (p - 1.0)
    return float(beta ** (n / pc) * (1.0 + (beta - 1.0) * 2.0 / pc)
                 ** (-0.5 * n))


def _bl_h(c1: float, c2: float, s: float) -> float:
    return float((2 * np.pi) ** (1.0 - 0.5 * (c1 + c2))
                 * np.sqrt(1.0 - np.exp(-2.0 * s)))


# name -> (formula, its signature); a formula takes its parameters by keyword
_SHARP_CONSTANTS = {f.__name__[1:]: (f, inspect.signature(f)) for f in (
    _hc_ratio, _lsi_gauss, _dn, _talagrand_gauss, _mikulincer, _beckner_b,
    _hj_t, _bl_h)}


def sharp_constant(name: str, **kw) -> float:
    """Evaluate a named sharp constant, its parameters by keyword; every
    one but bl_h takes the dimension n (default 1).  A missing or unknown
    keyword raises ParameterError naming the keywords the constant takes.

    hc_ratio        beta^{n/2p'} beta_s^{-n/2q'}         (beta, triple)
    lsi_gauss       -(n/2)(log beta - 1 + 1/beta)
    dn              +(n/2)(log beta - 1 + 1/beta)
    talagrand_gauss n (1 + log(beta)/2 - sqrt(beta))
    mikulincer      -n (2(1-beta) + (beta+1) log beta) / (2(beta-1))
    beckner_b       beta^{n/p'} (1 + (beta-1) 2/p')^{-n/2}   (p, beta)
    hj_t            (e^{-1}(1+tau(1-1/beta))^{1/(tau(1-1/beta))})^{(n/2)(1-1/beta)}
    bl_h            (2 pi)^{1-(c1+c2)/2} sqrt(1-e^{-2s})   (c1, c2, s)
    """
    if name not in _SHARP_CONSTANTS:
        raise ParameterError(f"unknown sharp constant {name!r}")
    formula, signature = _SHARP_CONSTANTS[name]
    try:
        signature.bind(**kw)
    except TypeError as exc:
        raise ParameterError(
            f"sharp constant {name} takes {', '.join(signature.parameters)}"
            f": {exc}") from None
    value = float(formula(**kw))
    if not np.isfinite(value):
        raise EvaluationError(f"sharp constant {name} is not finite")
    return value


# ---------------------------------------------------------------------------
# the Gaussian tilt and the hypercontractive norm


@dataclass(frozen=True)
class Tilt:
    """w = v^r gamma^{-a} as closures, and as ``tag``, w's exact LogQuad,
    when v's tag gives one (see tilt).  Without a tag, ``nodes(grid)``
    gives log w and (log w)'' at the nodes from v's node arrays, or
    (None, None) on a grid other than v's, and ``sums(x, y)``, for a
    mixture tag, log w at the sums x[:, None] + y (LogQuad.log_at_sums)."""

    log: Callable
    dlog: Callable
    d2log: Optional[Callable]
    tag: Optional[LogQuad] = None
    nodes: Optional[Callable] = None
    sums: Optional[Callable] = None

    def field(self, grid: Grid1D) -> GridField:
        """w on the grid: the tag's field when exact, else the closures with
        w's node arrays taken from v's, or evaluated at the nodes once."""
        if self.tag is not None:
            return field_from_family(grid, self.tag)
        return GridField.from_callable(grid, log_fn=self.log,
                                       dlog_fn=self.dlog, d2log_fn=self.d2log,
                                       nodes=self.nodes(grid))


def tilt(v, r: float, a: float) -> Tilt:
    """w = v^r gamma^{-a}: log w = r log v + a (x^2/2 + (1/2) log 2 pi).

    The one place that knows the Gaussian reference gamma.  v/gamma is
    (r, a) = (1, 1), (v/gamma)^{1/p} is (1/p, 1/p) and gamma f^p is (p, -1);
    gamma_beta/gamma is tilt(LogQuad.gaussian(beta), 1, 1).
    ``v`` is a GridField, or a LogQuad standing for itself.  A tag of one
    component, or any tag at r = 1, gives w exactly as a LogQuad.  Otherwise
    w is built from v's closures, (log w)' = r (log v)' + a x, and
    (log w)'' = r (log v)'' + a when v carries (log v)''; a mixture tag
    also gives log w at sums of points from its rank-K read.  Nothing is
    evaluated until a closure is called or ``field`` is built; a field on
    v's grid is built from v's node arrays, without evaluating v again.
    """
    tag = v if isinstance(v, LogQuad) else v.tag
    if tag is v or (isinstance(tag, LogQuad) and (tag.a.size == 1 or r == 1)):
        fam = tag if r == 1 else tag ** r  # raises for K > 1
        fam = LogQuad(fam.a + a, fam.b,
                      fam.c + 0.5 * np.log(2.0 * np.pi) * a)
        return Tilt(fam.log_at, fam.dlog, fam.d2log, fam)

    d2 = v.analytic_d2log

    def tilted(logv, x):
        return r * logv + a * (0.5 * x * x + 0.5 * np.log(2.0 * np.pi))

    def log(x):
        x = np.asarray(x, float)
        return tilted(v.log(x), x)

    def dlog(x):
        return r * v.dlog(x) + a * np.asarray(x, float)

    def nodes(grid):
        if grid != v.grid:
            return None, None
        return (tilted(v.grid_log(), grid.points),
                None if d2 is None else r * v.grid_d2log() + a)

    sums = (lambda x, y: tilted(tag.log_at_sums(x, y), np.add.outer(x, y))
            ) if isinstance(tag, LogQuad) else None
    return Tilt(log, dlog, None if d2 is None else (
        lambda x: r * np.asarray(d2(x), float) + a), nodes=nodes, sums=sums)


def log_ou_norm(w, q: float, s: float, rule: QuadratureRule) -> float:
    """log ||P_s w||_{L^q(gamma)}, s >= 0 (P_0 = identity): the one reader
    of P_s against gamma.  A tag of one component, or any tag at q = 1,
    takes the closed form (LogQuad.ou, then log_lp_norm_gauss); anything
    else nested Gauss-Hermite in log space, P_s read only at the outer
    nodes, at the nested sums through a Tilt's ``sums`` when it has one.
    ``w`` is a GridField or a Tilt."""
    if w.tag is not None and (w.tag.a.size == 1 or q == 1):
        return (w.tag.ou(s) if s else w.tag).log_lp_norm_gauss(q)
    sums = w.sums if isinstance(w, Tilt) else None
    logf = w.log if s == 0 else _ou_closures_1d(w.log, s, rule, sums)[0]
    return _log_lp(logf(rule.nodes), q, rule.log_weights)


def log_ou_pairing(u: Tilt, w: Tilt, s: float, rule: QuadratureRule) -> float:
    """log int u P_s w dgamma, s > 0: log P_s w at the rule's nodes by
    nested Gauss-Hermite, as in log_ou_norm, plus log u there, summed
    against the rule's weights."""
    log_pw = _ou_closures_1d(w.log, s, rule, w.sums)[0]
    return _log_lp(u.log(rule.nodes) + log_pw(rule.nodes), 1.0,
                   rule.log_weights)


def log_hc_norm(v, p: float, q: float, s: float,
                rule: QuadratureRule) -> float:
    """log ||P_s[(v/gamma)^{1/p}]||_{L^q(gamma)}, s >= 0, through
    log_ou_norm; at (p, q, s) = (1, 1, 0) the mass int v dx.  ``v`` is a
    GridField or a LogQuad, as in tilt."""
    return log_ou_norm(tilt(v, 1.0 / p, 1.0 / p), q, s, rule)


# ---------------------------------------------------------------------------
# the flow functional Q(t)


def _check_ratio_bounded(v: GridField, beta: float):
    """Checkable proxy for the L^2(gamma_beta^{-1}) hypothesis.

    We require log(v^2/gamma_beta) to peak in the grid interior: if it is
    still climbing at the boundary the defining integral int v^2/gamma_beta
    has no reason to converge.
    """
    x = v.grid.points
    if not interior_peak(2.0 * v.grid_log()
                         - LogQuad.gaussian(beta).log_at(x)):
        raise IntegrabilityError(
            "v^2/gamma_beta peaks at the grid boundary; "
            "L^2(gamma_beta^{-1}) proxy check failed")


def q_functional(vt: GridField, triple: ExponentTriple,
                 rule: QuadratureRule) -> float:
    """Q(t) = int gamma P_s[(v_t/gamma)^{1/p}]^q dx of the snapshot v_t of
    the beta-flow (flows.fp_evolve)."""
    return float(np.exp(triple.q * log_hc_norm(vt, triple.p, triple.q,
                                               triple.s, rule)))
