"""
Entropy, Fisher information, Gaussian L^p norms, the Gaussian tilt, the
hypercontractive norm, the flow functional Q(t), and every explicit sharp
constant.

The tilt w = v^r gamma^{-a} is the only code that writes out the reference
measure gamma; every deficit checker reaches v/gamma and its powers through
it.  log_ou_norm is the one reader of ||P_s w||_{L^q(gamma)}, every mass
int v dx included: Gauss-Hermite unless w's tag gives it in closed form.
Every field is read off its nodes through its exact closures.  Norms are
assembled in log space (log-sum-exp) so that negative and large exponents
are handled uniformly.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .families import LogQuad, field_from_family
from .flows import fp_evolve
from .numerics import (DEFAULT_GH_NODES, EvaluationError, Grid1D, GridField,
                       ParameterError, PositivityError, QuadratureRule,
                       gauss_hermite_rule, interior_peak, logsumexp)
from .semigroups import (ExponentTriple, IntegrabilityError, _ou_closures_1d,
                         beta_s)


@dataclass(frozen=True)
class EntFisher:
    entropy: float
    fisher: float


@dataclass(frozen=True)
class SharpConstant:
    name: str
    value: float
    params: dict = dc_field(default_factory=dict)


def _rule_or_default(rule: Optional[QuadratureRule]) -> QuadratureRule:
    return rule if rule is not None else gauss_hermite_rule(DEFAULT_GH_NODES)


# ---------------------------------------------------------------------------
# entropy and Fisher information


def _xlogx(x):
    out = np.zeros_like(x)
    big = x > 1e-300
    out[big] = x[big] * np.log(x[big])
    return out


def entropy_fisher(f: GridField | Tilt,
                   rule: Optional[QuadratureRule] = None) -> EntFisher:
    """Ent_gamma(f) and I_gamma(f) for a relative density f (w.r.t. gamma).

    Ent = int f log f dgamma - F log F with F = int f dgamma;
    I   = int f |grad log f|^2 dgamma  (the stable form of int |grad f|^2/f).
    ``f`` is a GridField or a Tilt: only f and (log f)' at the quadrature
    nodes are read.
    """
    rule = _rule_or_default(rule)
    z, w = rule.nodes, rule.weights
    fv = np.asarray(f(z), float)
    if np.any(fv < 0):
        raise PositivityError("entropy requires f >= 0")
    mass = float(fv @ w)
    ent = float(_xlogx(fv) @ w) - _xlogx(np.array([mass]))[0]
    dl = np.asarray(f.dlog(z), float)
    fisher = float((fv * dl * dl) @ w)
    return EntFisher(ent, fisher)


# ---------------------------------------------------------------------------
# Gaussian L^p norms


def _log_lp(lv, r: float, logw) -> float:
    """log ||f||_{L^r(gamma)} from log f at the quadrature nodes.

    ``lv`` holds log f at the nodes of a rule, ``logw`` its log weights.
    """
    lv = np.asarray(lv, float)
    if np.any(np.isnan(lv)):
        raise EvaluationError("log integrand is NaN at a quadrature node")
    total = logsumexp(r * lv + logw)
    if not np.isfinite(total):
        raise IntegrabilityError("|f|^r not integrable against gamma")
    return float(total / r)


# ---------------------------------------------------------------------------
# sharp constants


def _hc_ratio(beta: float, triple: ExponentTriple, n: int) -> float:
    bs = beta_s(beta, triple)
    if bs <= 0:
        raise ParameterError("beta_s <= 0: deficit constant undefined")
    return float(beta ** (n / (2 * triple.p_conj))
                 * bs ** (-n / (2 * triple.q_conj)))


def _dn(beta: float, n: int) -> float:
    return 0.5 * n * (np.log(beta) - 1.0 + 1.0 / beta)


def _mikulincer(beta: float, n: int) -> float:
    if beta == 1.0:
        return 0.0  # analytic limit of the ratio
    return float(-n * (2 * (1 - beta) + (beta + 1) * np.log(beta))
                 / (2 * (beta - 1)))


def _hj_t(tau: float, beta: float, n: int) -> float:
    if tau <= 0 or beta <= 0:
        raise ParameterError("tau and beta must be positive")
    if beta == 1.0:
        return 1.0  # analytic limit
    d = tau * (1.0 - 1.0 / beta)
    if 1.0 + d <= 0:
        raise ParameterError("T(tau, beta) undefined: 1 + tau(1-1/beta) <= 0")
    return float((np.exp(-1.0) * (1.0 + d) ** (1.0 / d))
                 ** (0.5 * n * (1.0 - 1.0 / beta)))


def _beckner_b(p: float, beta: float, n: int) -> float:
    pc = p / (p - 1.0)
    return float(beta ** (n / pc) * (1.0 + (beta - 1.0) * 2.0 / pc)
                 ** (-0.5 * n))


def sharp_constant(name: str, *, beta: float = None, p: float = None,
                   q: float = None, s: float = None, tau: float = None,
                   c1: float = None, c2: float = None,
                   triple: ExponentTriple = None, n: int = 1) -> SharpConstant:
    """Evaluate a named sharp constant.

    hc_ratio        beta^{n/2p'} beta_s^{-n/2q'}         (needs beta, triple)
    lsi_gauss       -(n/2)(log beta - 1 + 1/beta)
    dn              +(n/2)(log beta - 1 + 1/beta)
    talagrand_gauss n (1 + log(beta)/2 - sqrt(beta))
    mikulincer      -n (2(1-beta) + (beta+1) log beta) / (2(beta-1))
    beckner_b       beta^{n/p'} (1 + (beta-1) 2/p')^{-n/2}   (needs p, beta)
    hj_t            (e^{-1}(1+tau(1-1/beta))^{1/(tau(1-1/beta))})^{(n/2)(1-1/beta)}
    bl_h            (2 pi)^{1-(c1+c2)/2} sqrt(1-e^{-2s})
    """
    if triple is None and p is not None and q is not None:
        triple = ExponentTriple.from_pq(p, q)
    if name == "hc_ratio":
        value = _hc_ratio(beta, triple, n)
        params = dict(beta=beta, p=triple.p, q=triple.q, s=triple.s, n=n)
    elif name == "lsi_gauss":
        value = -_dn(beta, n)
        params = dict(beta=beta, n=n)
    elif name == "dn":
        value = _dn(beta, n)
        params = dict(beta=beta, n=n)
    elif name == "talagrand_gauss":
        value = float(n * (1.0 + 0.5 * np.log(beta) - np.sqrt(beta)))
        params = dict(beta=beta, n=n)
    elif name == "mikulincer":
        value = _mikulincer(beta, n)
        params = dict(beta=beta, n=n)
    elif name == "beckner_b":
        value = _beckner_b(p, beta, n)
        params = dict(beta=beta, p=p, n=n)
    elif name == "hj_t":
        value = _hj_t(tau, beta, n)
        params = dict(tau=tau, beta=beta, n=n)
    elif name == "bl_h":
        if s is None and triple is not None:
            s = triple.s
        value = float((2 * np.pi) ** (1.0 - 0.5 * (c1 + c2))
                      * np.sqrt(1.0 - np.exp(-2.0 * s)))
        params = dict(c1=c1, c2=c2, s=s)
    else:
        raise ParameterError(f"unknown sharp constant {name!r}")
    if not np.isfinite(value):
        raise EvaluationError(f"sharp constant {name} is not finite")
    return SharpConstant(name, float(value), params)


# ---------------------------------------------------------------------------
# the Gaussian tilt and the hypercontractive norm


@dataclass(frozen=True)
class Tilt:
    """w = v^r gamma^{-a} as closures, and as ``tag``, w's exact LogQuad,
    when v's tag gives one (see tilt).  Without a tag, ``nodes(grid)``
    gives log w and (log w)'' at the nodes from v's node arrays, or
    (None, None) on a grid other than v's."""

    log: Callable
    dlog: Callable
    d2log: Optional[Callable]
    tag: Optional[LogQuad] = None
    nodes: Optional[Callable] = None

    def __call__(self, x):
        return np.exp(self.log(x))

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
    (r, a) = (1, 1), (v/gamma)^{1/p} is (1/p, 1/p) and gamma f^p is (p, -1).
    ``v`` is a GridField, or a LogQuad standing for itself.  A tag of one
    component, or any tag at r = 1, gives w exactly as a LogQuad.  Otherwise
    w is built from v's closures, (log w)' = r (log v)' + a x, and
    (log w)'' = r (log v)'' + a when v carries (log v)''.  Nothing is
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

    return Tilt(log, dlog, None if d2 is None else (
        lambda x: r * np.asarray(d2(x), float) + a), nodes=nodes)


def log_ou_norm(w, q: float, s: float,
                rule: Optional[QuadratureRule] = None) -> float:
    """log ||P_s w||_{L^q(gamma)}, s >= 0 (P_0 = identity): the one reader
    of P_s against gamma.  A tag of one component, or any tag at q = 1,
    takes the closed form (LogQuad.ou, then log_lp_norm_gauss); anything
    else nested Gauss-Hermite in log space, P_s read only at the outer
    nodes.  ``w`` is a GridField or a Tilt."""
    if w.tag is not None and (w.tag.a.size == 1 or q == 1):
        return (w.tag.ou(s) if s else w.tag).log_lp_norm_gauss(q)
    rule = _rule_or_default(rule)
    logf = w.log if s == 0 else _ou_closures_1d(w.log, s, rule)[0]
    return _log_lp(logf(rule.nodes), q, rule.log_weights)


def log_hc_norm(v, p: float, q: float, s: float,
                rule: Optional[QuadratureRule] = None) -> float:
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


def q_functional(v0: GridField, beta: float, triple: ExponentTriple,
                 t: float, rule: Optional[QuadratureRule] = None) -> float:
    """Q(t) = int gamma P_s[(v_t/gamma)^{1/p}]^q dx along the beta-flow."""
    _check_ratio_bounded(v0, beta)
    vt = fp_evolve(v0, beta, t)
    return float(np.exp(triple.q * log_hc_norm(vt, triple.p, triple.q,
                                               triple.s, rule)))
