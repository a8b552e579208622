"""
Closed-form families: log-quadratic functions and Gaussian mixtures.

A LogQuad is f(x) = exp(a x^2/2 + b x + c).  The family is closed under
products, powers, the Ornstein-Uhlenbeck semigroup and the Fokker-Planck
kernel (complete-the-square identities), which makes it the workhorse for
extremiser checks: Gaussian densities gamma_beta(. - m) are log-quadratics,
and finite measures pushed through the Fokker-Planck kernel are mixtures of
them.  Fields built from these carry exact evaluators for value, log value
and (log f)'.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import logsumexp, ndtr

from .numerics import Grid1D, GridField, ParameterError

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class LogQuad:
    """f(x) = exp(a x^2 / 2 + b x + c)."""

    a: float
    b: float
    c: float = 0.0

    # -- construction -----------------------------------------------------

    @staticmethod
    def gaussian(beta: float, mean: float = 0.0) -> "LogQuad":
        """The density gamma_beta(x - mean)."""
        if beta <= 0:
            raise ParameterError("beta must be positive")
        return LogQuad(-1.0 / beta, mean / beta,
                       -mean**2 / (2.0 * beta) - 0.5 * np.log(2 * np.pi * beta))

    @staticmethod
    def gaussian_ratio(beta: float, power: float = 1.0) -> "LogQuad":
        """(gamma_beta / gamma)^power."""
        g = LogQuad.gaussian(beta)
        return LogQuad((g.a + 1.0) * power, g.b * power,
                       (g.c + 0.5 * LOG_2PI) * power)

    # -- pointwise --------------------------------------------------------

    def log_at(self, x):
        x = np.asarray(x, float)
        return 0.5 * self.a * x * x + self.b * x + self.c

    def __call__(self, x):
        return np.exp(self.log_at(x))

    def dlog(self, x):
        return self.a * np.asarray(x, float) + self.b

    def d2log(self, x):
        return np.full_like(np.asarray(x, float), self.a)

    # -- algebra ----------------------------------------------------------

    def __mul__(self, other: "LogQuad") -> "LogQuad":
        return LogQuad(self.a + other.a, self.b + other.b, self.c + other.c)

    def __pow__(self, r: float) -> "LogQuad":
        return LogQuad(self.a * r, self.b * r, self.c * r)

    def scaled(self, factor: float) -> "LogQuad":
        if factor <= 0:
            raise ParameterError("scale factor must be positive")
        return LogQuad(self.a, self.b, self.c + float(np.log(factor)))

    def dilate(self, lam: float) -> "LogQuad":
        """x -> f(lam x)."""
        return LogQuad(self.a * lam * lam, self.b * lam, self.c)

    # -- integrals --------------------------------------------------------

    def integral_lebesgue(self) -> float:
        if self.a >= 0:
            raise ParameterError("not Lebesgue integrable (a >= 0)")
        return float(np.exp(self.c - self.b**2 / (2 * self.a))
                     * np.sqrt(2 * np.pi / (-self.a)))

    def integral_gauss(self) -> float:
        """int f dgamma."""
        d = 1.0 - self.a
        if d <= 0:
            raise ParameterError("not integrable against gamma (a >= 1)")
        return float(np.exp(self.c + self.b**2 / (2 * d)) / np.sqrt(d))

    def log_lp_norm_gauss(self, r: float) -> float:
        """log ||f||_{L^r(gamma)} = (1/r) log int f^r dgamma."""
        fr = self ** r
        d = 1.0 - fr.a
        if d <= 0:
            raise ParameterError("f^r not integrable against gamma")
        return float((fr.c + fr.b**2 / (2 * d) - 0.5 * np.log(d)) / r)

    # -- kernels ----------------------------------------------------------

    def ou(self, s: float) -> "LogQuad":
        """P_s f, requiring a (1 - e^{-2s}) < 1."""
        e = np.exp(-s)
        sig2 = 1.0 - e * e
        d = 1.0 - self.a * sig2
        if d <= 0:
            raise ParameterError("OU integral diverges for this log-quadratic")
        return LogQuad(self.a * e * e / d, self.b * e / d,
                       self.c + sig2 * self.b**2 / (2 * d) - 0.5 * np.log(d))

    def fp(self, beta: float, t: float) -> "LogQuad":
        """Evolution of f as a density under the beta-Fokker-Planck kernel."""
        if t <= 0:
            raise ParameterError("fp requires t > 0")
        w = beta * (1.0 - np.exp(-2.0 * t))
        et = np.exp(-t)
        eden = et * et - self.a * w  # = w * E in the complete-the-square
        if eden <= 0:
            raise ParameterError("FP integral diverges for this log-quadratic")
        E = eden / w
        return LogQuad(self.a / eden, self.b * et / eden,
                       self.c + self.b**2 / (2 * E) - 0.5 * np.log(w * E))

    # -- distribution functions ------------------------------------------

    def mass_and_cdf(self):
        """(total mass, normalized CDF callable); requires a < 0."""
        if self.a >= 0:
            raise ParameterError("CDF requires a < 0")
        sigma = float(np.sqrt(-1.0 / self.a))
        mean = -self.b / self.a
        mass = self.integral_lebesgue()
        return mass, (lambda x: ndtr((np.asarray(x, float) - mean) / sigma))

    def moments(self):
        """(mass, mean, variance) of the unnormalized density; a < 0."""
        if self.a >= 0:
            raise ParameterError("moments require a < 0")
        return self.integral_lebesgue(), -self.b / self.a, -1.0 / self.a


@dataclass(frozen=True)
class Mixture:
    """Positive combination sum_i w_i f_i of log-quadratics."""

    weights: tuple
    components: tuple

    def __post_init__(self):
        if len(self.weights) != len(self.components) or not self.components:
            raise ParameterError("weights/components mismatch")
        if any(w <= 0 for w in self.weights):
            raise ParameterError("mixture weights must be positive")
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "components", tuple(self.components))

    @staticmethod
    def of(pairs: Sequence) -> "Mixture":
        ws, cs = zip(*pairs)
        return Mixture(tuple(ws), tuple(cs))

    def log_at(self, x):
        x = np.asarray(x, float)
        logs = np.stack([np.log(w) + q.log_at(x)
                         for w, q in zip(self.weights, self.components)])
        return logsumexp(logs, axis=0)

    def __call__(self, x):
        return np.exp(self.log_at(x))

    def _posterior(self, x):
        x = np.asarray(x, float)
        logs = np.stack([np.log(w) + q.log_at(x)
                         for w, q in zip(self.weights, self.components)])
        logs -= logsumexp(logs, axis=0, keepdims=True)
        return np.exp(logs)

    def dlog(self, x):
        p = self._posterior(x)
        d = np.stack([q.dlog(x) for q in self.components])
        return np.sum(p * d, axis=0)

    def d2log(self, x):
        # sum p_i (logf_i)'' + Var_p((logf_i)')
        p = self._posterior(x)
        d = np.stack([q.dlog(x) for q in self.components])
        d2 = np.stack([q.d2log(x) for q in self.components])
        mean_d = np.sum(p * d, axis=0)
        return np.sum(p * d2, axis=0) + np.sum(p * d * d, axis=0) - mean_d**2

    def _map(self, fn) -> "Mixture":
        return Mixture(self.weights, tuple(fn(q) for q in self.components))

    def ou(self, s: float) -> "Mixture":
        return self._map(lambda q: q.ou(s))

    def fp(self, beta: float, t: float) -> "Mixture":
        return self._map(lambda q: q.fp(beta, t))

    def dilate(self, lam: float) -> "Mixture":
        return self._map(lambda q: q.dilate(lam))

    def integral_lebesgue(self) -> float:
        return float(sum(w * q.integral_lebesgue()
                         for w, q in zip(self.weights, self.components)))

    def integral_gauss(self) -> float:
        return float(sum(w * q.integral_gauss()
                         for w, q in zip(self.weights, self.components)))

    def mass_and_cdf(self):
        parts = [q.mass_and_cdf() for q in self.components]
        mass = float(sum(w * m for w, (m, _) in zip(self.weights, parts)))

        def cdf(x):
            acc = 0.0
            for w, (m, F) in zip(self.weights, parts):
                acc = acc + w * m * F(x)
            return acc / mass

        return mass, cdf

    def moments(self):
        mv = [q.moments() for q in self.components]
        mass = sum(w * m for w, (m, _, _) in zip(self.weights, mv))
        mean = sum(w * m * mu for w, (m, mu, _) in zip(self.weights, mv)) / mass
        second = sum(w * m * (v + mu * mu)
                     for w, (m, mu, v) in zip(self.weights, mv)) / mass
        return float(mass), float(mean), float(second - mean**2)


Family = (LogQuad, Mixture)


def field_from_family(grid: Grid1D, fam) -> GridField:
    """Wrap a LogQuad/Mixture as a GridField with exact evaluators."""
    return GridField(
        grid,
        analytic=fam.__call__,
        analytic_log=fam.log_at,
        analytic_dlog=fam.dlog,
        tag=fam,
    )


def gaussian_field(grid: Grid1D, beta: float, mean: float = 0.0) -> GridField:
    return field_from_family(grid, LogQuad.gaussian(beta, mean))


def gaussian_ratio_field(grid: Grid1D, beta: float) -> GridField:
    """gamma_beta / gamma as a field (the extremiser input v/gamma)."""
    return field_from_family(grid, LogQuad.gaussian_ratio(beta))


def symmetric_mixture(a: float, var: float = 1.0) -> Mixture:
    """(1/2) gamma_var(. + a) + (1/2) gamma_var(. - a)."""
    return Mixture((0.5, 0.5), (LogQuad.gaussian(var, -a),
                                LogQuad.gaussian(var, a)))
