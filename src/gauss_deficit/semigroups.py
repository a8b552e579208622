"""
Ornstein-Uhlenbeck semigroup and exponent bookkeeping.

P_s f(x) = int f(e^{-s} x + sqrt(1 - e^{-2s}) y) dgamma(y)

read in log space at the points asked for, by Gauss-Hermite quadrature;
functionals.log_ou_norm takes the closed form of a tagged field instead.
An exponent triple is its (p, q); it derives s from (q - 1)/(p - 1) = e^{2s}.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class ExponentTriple:
    """Finite (p, q), neither 0 nor 1, with (q - 1)/(p - 1) = e^{2s} > 1:
    1 < p < q or q < p < 1; q = 0 is the excluded p = 1 - e^{-2s}."""
    p: float
    q: float
    s: float = field(init=False)

    def __post_init__(self):
        if not (np.isfinite(self.p) and np.isfinite(self.q)):
            raise InadmissibleExponentError("p and q must be finite")
        if self.p == 1 or self.q == 1:
            raise InadmissibleExponentError("p and q must differ from 1")
        if abs(self.p) < 1e-9 or abs(self.q) < 1e-9:
            raise InadmissibleExponentError("p and q must differ from 0")
        ratio = (self.q - 1.0) / (self.p - 1.0)
        if not 1.0 < ratio < np.inf:
            raise InadmissibleExponentError(
                f"(q-1)/(p-1) = {ratio} must be finite and exceed 1")
        object.__setattr__(self, "s", 0.5 * float(np.log(ratio)))

    @property
    def regime(self) -> str:
        if self.p > 1:
            return "forward"
        return ("reverse-same-sign" if self.p * self.q > 0
                else "reverse-opposite-sign")

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


def _ou_closures_1d(f_log, s: float, rule: QuadratureRule, f_log_sums=None):
    """(log P_s f,): a closure of x for s > 0, from the log closure f_log
    of f, evaluated only where called; a tuple, as bench/spans.py wraps
    each closure returned.  ``f_log_sums(x, y)``, if given, is log f at
    x_i + y_j for 1-D x and y, and reads the samples in f_log's place."""
    if s <= 0:
        raise ParameterError("s must be positive")
    e = float(np.exp(-s))
    sig = float(np.sqrt(1.0 - e * e))
    z, logw = rule.nodes, rule.log_weights

    def logvalue(x):
        x = np.asarray(x, float)
        lv = np.asarray(f_log(e * x[..., None] + sig * z) if f_log_sums is None
                        else f_log_sums(e * x.ravel(), sig * z).reshape(
                            x.shape + z.shape), float)
        if np.any(np.isnan(lv)) or np.any(lv == np.inf):
            raise IntegrabilityError("OU integrand overflowed in log space")
        return logsumexp(lv + logw, axis=-1)

    return (logvalue,)
