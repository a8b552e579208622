"""
Ornstein-Uhlenbeck semigroup and exponent bookkeeping.

P_s f(x) = int f(e^{-s} x + sqrt(1 - e^{-2s}) y) dgamma(y)

read in log space at the points asked for, by Gauss-Hermite quadrature;
functionals.log_ou_norm takes the closed form of a tagged field instead.
Exponent triples (p, q, s) carry the relation (q - 1)/(p - 1) = e^{2s}.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (EvaluationError, ParameterError, QuadratureRule,
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


def _ou_closures_1d(f_log, s: float, rule: QuadratureRule):
    """(log P_s f,): a closure of x for s > 0, from the log closure f_log
    of f, evaluated only where called; a tuple, as bench/spans.py wraps
    each closure returned."""
    if s <= 0:
        raise ParameterError("s must be positive")
    e = float(np.exp(-s))
    sig = float(np.sqrt(1.0 - e * e))
    z, logw = rule.nodes, rule.log_weights

    def logvalue(x):
        samples = e * np.asarray(x, float)[..., None] + sig * z
        lv = np.asarray(f_log(samples), float)
        if np.any(np.isnan(lv)) or np.any(lv == np.inf):
            raise IntegrabilityError("OU integrand overflowed in log space")
        return logsumexp(lv + logw, axis=-1)

    return (logvalue,)
