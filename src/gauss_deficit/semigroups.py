"""
Ornstein-Uhlenbeck semigroup and exponent bookkeeping.

P_s f(x) = int f(e^{-s} x + sqrt(1 - e^{-2s}) y) dgamma(y)

evaluated per output point by Gauss-Hermite quadrature, with a closed-form
fast path for log-quadratic / mixture tagged fields.  Exponent triples
(p, q, s) carry the relation (q - 1)/(p - 1) = e^{2s}.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .families import LogQuad, field_from_family
from .numerics import (DEFAULT_GH_NODES, EvaluationError, GridField,
                       ParameterError, QuadratureRule, gauss_hermite_rule,
                       logsumexp)


class IntegrabilityError(EvaluationError):
    """The OU integrand grows faster than the kernel decays.

    The admissible inputs are those in L^2(gamma_beta^{-1}); on the grid we
    can only detect the failure as overflow/non-finiteness.
    """


class InadmissibleExponentError(ParameterError):
    """(p, q) outside the admissible hypercontractivity regimes."""


def nelson_time(p: float, q: float) -> float:
    """s = (1/2) log((q-1)/(p-1)); requires the ratio to exceed 1."""
    if p == 1 or q == 1:
        raise InadmissibleExponentError("p and q must differ from 1")
    ratio = (q - 1.0) / (p - 1.0)
    if ratio <= 1.0:
        raise InadmissibleExponentError(
            f"(q-1)/(p-1) = {ratio} must exceed 1")
    return 0.5 * float(np.log(ratio))


@dataclass(frozen=True)
class ExponentTriple:
    p: float
    q: float
    s: float

    def __post_init__(self):
        if self.p == 1 or self.q == 1:
            raise InadmissibleExponentError("p and q must differ from 1")
        if self.s <= 0:
            raise InadmissibleExponentError("s must be positive")
        ratio = (self.q - 1.0) / (self.p - 1.0)
        if ratio <= 0 or abs(ratio - np.exp(2 * self.s)) > 1e-12 * abs(ratio):
            raise InadmissibleExponentError(
                "(q-1)/(p-1) = e^{2s} violated")

    @staticmethod
    def from_pq(p: float, q: float) -> "ExponentTriple":
        return ExponentTriple(p, q, nelson_time(p, q))

    @property
    def regime(self) -> str:
        if 1 < self.p < self.q:
            return "forward"
        if self.q < self.p < 1:
            return ("reverse-same-sign" if self.p * self.q > 0
                    else "reverse-opposite-sign")
        raise InadmissibleExponentError(
            f"(p, q) = ({self.p}, {self.q}) not in an admissible regime")

    @property
    def p_conj(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def q_conj(self) -> float:
        return self.q / (self.q - 1.0)


def beta_s(beta: float, triple: ExponentTriple) -> float:
    """beta_s = 1 + (beta - 1) (q/p) e^{-2s}, which may be non-positive."""
    if beta <= 0:
        raise ParameterError("beta must be positive")
    return float(1.0 + (beta - 1.0) * (triple.q / triple.p)
                 * np.exp(-2 * triple.s))


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck semigroup


def _ou_closures_1d(f, s: float, rule: QuadratureRule):
    """(value, log value) closures of P_s f, evaluated only where called.

    f is a GridField, or a plain log-evaluator x -> log f(x).
    """
    if isinstance(f, GridField):
        f_value, f_log = f, f.log
    else:
        f_log = f

        def f_value(y):
            return np.exp(f_log(y))

    e = float(np.exp(-s))
    sig = float(np.sqrt(1.0 - e * e))
    z, w = rule.nodes, rule.weights
    logw = rule.log_weights

    def value(x):
        x = np.asarray(x, float)
        samples = e * x[..., None] + sig * z
        vals = np.asarray(f_value(samples), float)
        if not np.all(np.isfinite(vals)):
            raise IntegrabilityError("OU integrand overflowed; input not in "
                                     "L^2(gamma_beta^{-1}) range")
        return vals @ w

    def logvalue(x):
        x = np.asarray(x, float)
        samples = e * x[..., None] + sig * z
        lv = np.asarray(f_log(samples), float)
        if np.any(np.isnan(lv)) or np.any(lv == np.inf):
            raise IntegrabilityError("OU integrand overflowed in log space")
        return logsumexp(lv + logw, axis=-1)

    return value, logvalue


def ou_apply(f: GridField, s: float,
             rule: Optional[QuadratureRule] = None) -> GridField:
    """P_s f as a GridField on the same grid.

    Tagged LogQuad inputs take the complete-the-square closed form;
    everything else is quadrature per output point.  Callers that read
    P_s f at a few points only should use the quadrature closures directly.
    """
    if s <= 0:
        raise ParameterError("s must be positive")
    if isinstance(f.tag, LogQuad):
        return field_from_family(f.grid, f.tag.ou(s))
    if rule is None:
        rule = gauss_hermite_rule(DEFAULT_GH_NODES)
    value, logvalue = _ou_closures_1d(f, s, rule)
    return GridField.from_callable(f.grid, value, log_fn=logvalue)
