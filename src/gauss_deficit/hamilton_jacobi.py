"""
Hopf-Lax infimal convolution and the Hamilton-Jacobi forms of
hypercontractivity and the dual Talagrand inequality.

Every admissible datum is uniformly convex (f'' >= 1 - 1/beta > 0), so
hopf_lax returns Q_tau f as a closure that finds the one minimiser by
safeguarded Newton at the points it is asked for; the checks read Q_tau f
and the datum through their closures at the quadrature nodes alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .families import LogQuad
from .functionals import _log_lp, sharp_constant, tilt
from .numerics import (EvaluationError, Grid1D, GridField, ParameterError,
                       QuadratureRule)
from .reports import DeficitReport, HypothesisCheck


@dataclass(frozen=True)
class HJField:
    """Initial datum f for the Hamilton-Jacobi flow (a function, not a
    density), with its exact slope f' and laplacian f'', inf_laplacian =
    inf f'' and kappa = lim sup f'' as |y| -> infinity: global facts that
    no grid sample certifies.  The checks read f through its closure; its
    grid is read only by the benchmark's hopf_lax hook (bench/spans.py)."""

    f: GridField
    slope: Callable
    laplacian: Callable
    inf_laplacian: float
    kappa: float


def hopf_lax(f: HJField, tau: float) -> Callable:
    """Q_tau f(x) = min_y { f(y) + |x-y|^2 / (2 tau) } as a closure.

    The cost is mu-convex, mu = inf f'' + 1/tau > 0, so its minimiser y* is
    the one root of the increasing g(y) = f'(y) + (y - x)/tau, and
    |g(x)| >= mu |x - y*|.  The closure runs Newton on g from y = x,
    safeguarded by bisection inside the bracket |y - x| <= 2|g(x)|/mu (at
    |g(x)|/mu a quadratic datum's root lies on the bracket's edge).  Q is
    stationary at y*, so an error delta in y moves Q by (f'' + 1/tau)
    delta^2/2 only, and the iteration stops on the step size."""
    if not (0 < tau < np.inf and (mu := f.inf_laplacian + 1.0 / tau) > 0):
        raise ParameterError(
            f"Hopf-Lax needs 0 < tau < inf and inf f'' > -1/tau for a unique "
            f"minimiser, got tau={tau}, inf f''={f.inf_laplacian}")

    def q(x):
        x = np.asarray(x, float)
        y, g = x, np.asarray(f.slope(x), float)
        lo, hi = x - 2.0 * np.abs(g) / mu, x + 2.0 * np.abs(g) / mu
        for _ in range(200):
            lo, hi = np.where(g < 0, y, lo), np.where(g > 0, y, hi)
            new = y - g / (f.laplacian(y) + 1.0 / tau)
            new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
            y, dy = new, new - y
            if not np.any(np.abs(dy) > 1e-10 * (1.0 + np.abs(y))):
                return f.f(y) + (x - y) ** 2 / (2.0 * tau)
            g = f.slope(y) + (y - x) / tau
        raise EvaluationError("Hopf-Lax Newton did not converge")

    return q


# ---------------------------------------------------------------------------
# closed forms for the quadratic extremiser family


def quadratic_datum(a: float, alpha: float, grid: Grid1D) -> HJField:
    """f = (1/a) log(gamma_alpha / gamma) = log w, w the tilt of gamma_alpha
    by (1/a, 1/a), as an HJField with its exact f' and f'', the constant
    k = (1 - 1/alpha)/a that is also its inf f'' and kappa."""
    if a <= 0 or alpha <= 0:
        raise ParameterError("a and alpha must be positive")
    ratio = tilt(LogQuad.gaussian(alpha), 1.0 / a, 1.0 / a).tag
    k = (1.0 - 1.0 / alpha) / a
    return HJField(GridField.from_callable(grid, ratio.log_at), ratio.dlog,
                   ratio.d2log, k, k)


def hopf_lax_quadratic(a: float, alpha: float, tau: float) -> LogQuad:
    """Closed form Q_tau[(1/a) log(gamma_alpha/gamma)] (valid for alpha >= 1):

    (1/(2 tau)) (delta/(delta+1)) |x|^2 - (1/(2a)) log alpha,
    delta = (tau/a)(1 - 1/alpha), as the LogQuad e^{Q_tau}.
    """
    delta = (tau / a) * (1.0 - 1.0 / alpha)
    coef = (delta / (delta + 1.0)) / tau
    return LogQuad(float(coef), 0.0, float(-0.5 * np.log(alpha) / a))


def beta_of_a(a: float, beta: float) -> float:
    """1/beta(a) = 1 - a(1 - 1/beta)."""
    den = 1.0 - a * (1.0 - 1.0 / beta)
    if den <= 0:
        raise ParameterError("beta(a) undefined: 1 - a(1-1/beta) <= 0")
    return 1.0 / den


# ---------------------------------------------------------------------------
# deficit checks


def _integrability_margin(f: HJField, a: float, beta_a: float) -> float:
    """1 - 1/(2 beta(a)) - a kappa: int e^{2af} gamma/gamma_{beta(a)} dgamma
    converges where it is positive.

    Against dx the integrand is e^{2af} gamma^2/gamma_{beta(a)}, whose log
    is 2af - (1 - 1/(2 beta(a))) y^2 + const.  As f'' <= kappa + eps for
    |y| large, for every eps > 0, 2af <= a (kappa + eps) y^2 + O(|y|), so
    the integral converges when a kappa < 1 - 1/(2 beta(a))."""
    return 1.0 - 0.5 / beta_a - a * f.kappa


def hj_hc_check(f: HJField, a: float, tau: float, beta: float,
                rule: QuadratureRule) -> DeficitReport:
    """Hamilton-Jacobi hypercontractivity deficit:

        ||e^{Q_tau f}||_{a+tau}
            <= ||e^{Q_tau[(1/a) log(gamma_{beta(a)}/gamma)]}||_{a+tau}
               ||e^f||_a.
    """
    if a <= 0:
        raise ParameterError("a must be positive")
    if beta <= 1:
        raise ParameterError("requires beta > 1")
    if beta * (1.0 - 1.0 / a) >= 1.0:
        raise ParameterError("admissibility beta(1 - 1/a) < 1 violated")
    ba = beta_of_a(a, beta)
    hyps = [HypothesisCheck("beta(1-1/a)<1",
                            1.0 - beta * (1.0 - 1.0 / a), 0.0),
            HypothesisCheck("laplacian>=1-1/beta",
                            f.inf_laplacian - (1.0 - 1.0 / beta), 1e-6),
            HypothesisCheck("exp-moment-integrable",
                            _integrability_margin(f, a, ba), 0.0)]

    z, log_w = rule.nodes, rule.log_weights
    lhs = float(np.exp(_log_lp(hopf_lax(f, tau)(z), a + tau, log_w)))
    log_ref = hopf_lax_quadratic(a, ba, tau).log_lp_norm_gauss(a + tau)
    log_ef = _log_lp(f.f(z), a, log_w)
    rhs = float(np.exp(log_ref + log_ef))
    return DeficitReport(
        "hj-hypercontractivity", lhs, rhs, float(np.exp(log_ref)),
        hypotheses=hyps,
        params={"a": a, "tau": tau, "beta": beta, "beta_a": ba,
                "norm_ef": float(np.exp(log_ef))})


def dual_talagrand_check(f: HJField, tau: float, beta: float,
                         rule: QuadratureRule) -> DeficitReport:
    """Dual Talagrand deficit: ||e^{Q_tau f}||_tau <= T(tau, beta) e^{int f}.

    Hypotheses: the uniform-subharmonicity / exponential-moment condition
    at the two small values a in {0.01, 0.005}.  The limit identity
    defining T is evaluated at a = 0.01 and recorded in params.
    """
    if beta <= 1:
        raise ParameterError("requires beta > 1")
    hyps = [HypothesisCheck("laplacian>=1-1/beta",
                            f.inf_laplacian - (1.0 - 1.0 / beta), 1e-6)]
    hyps += [HypothesisCheck(f"exp-moment-integrable(a={a})",
                             _integrability_margin(f, a, beta_of_a(a, beta)),
                             0.0) for a in (0.01, 0.005)]

    lhs = float(np.exp(_log_lp(hopf_lax(f, tau)(rule.nodes), tau,
                               rule.log_weights)))
    t_const = sharp_constant("hj_t", tau=tau, beta=beta)
    mean_f = float(np.asarray(f.f(rule.nodes), float) @ rule.weights)
    rhs = t_const * float(np.exp(mean_f))

    a0 = 0.01
    t_limit = float(np.exp(hopf_lax_quadratic(
        a0, beta_of_a(a0, beta), tau).log_lp_norm_gauss(a0 + tau)))
    return DeficitReport(
        "dual-talagrand", lhs, rhs, t_const, hypotheses=hyps,
        params={"tau": tau, "beta": beta, "mean_f": mean_f,
                "t_limit_at_a=0.01": t_limit,
                "t_limit_gap": t_limit - t_const})
