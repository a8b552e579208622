"""
Hopf-Lax infimal convolution and the Hamilton-Jacobi forms of
hypercontractivity and the dual Talagrand inequality.

The Hopf-Lax minimum over the M sampled candidates is read off the lower
envelope of parabolas in O(M + N log M) (Felzenszwalb & Huttenlocher,
Distance Transforms of Sampled Functions, Theory of Computing 8, 2012);
beyond the grid the initial datum is continued by its exact closure, never
below its linear lower bound -C(1+|y|), so that no spurious boundary
minimum appears.  hopf_lax returns the envelope as a closure, and the
checks read Q_tau f and the datum through their closures at the quadrature
nodes alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .families import LogQuad
from .functionals import _log_lp, sharp_constant, tilt
from .numerics import (Grid1D, GridField, ParameterError, QuadratureRule,
                       interior_peak)
from .reports import DeficitReport, HypothesisCheck


@dataclass(frozen=True)
class HJField:
    """Initial datum f for the Hamilton-Jacobi flow (a function, not a
    density), with its exact f'' as laplacian: the checks refuse a datum
    without one, which only hopf_lax reads."""

    f: GridField
    laplacian: Optional[Callable] = None


def hopf_lax(f: HJField, tau: float) -> Callable:
    """Q_tau f(x) = min_y { f(y) + |x-y|^2 / (2 tau) } over the grid and
    its extension, from the lower envelope of the parabolas, as a closure
    that reads the envelope at any x.

    Past the grid f is the larger of its exact closure and -C(1+|y|), C =
    max(0, max -f/(1+|x|)) read off its values."""
    if not tau > 0:
        raise ParameterError("tau must be positive")
    g, fv = f.f.grid, f.f.values
    # candidate points: the grid plus extension segments that hold the
    # minimizer y = x -+ C tau, within flows._grid_density_family's pad cap;
    # a tau whose margin 4 max(1, tau) alone passes it is refused unread
    ext = 4.0 * max(1.0, tau)
    if ext / g.spacing <= 64 * (g.n - 1):
        C = max(0.0, float(np.max(-fv / (1.0 + np.abs(g.points)))))
        lip = float(np.max(np.abs(np.gradient(fv, g.spacing, edge_order=2))))
        ext += (C + lip) * tau
    if not ext / g.spacing <= 64 * (g.n - 1):  # a NaN extension fails too
        raise ParameterError(
            f"Hopf-Lax at tau={tau:g} needs {ext:.3g} of linear extension on "
            f"each side of the grid, more than 64 grid widths")
    n_ext = int(np.ceil(ext / g.spacing))
    left = g.lo - g.spacing * np.arange(n_ext, 0, -1)
    right = g.hi + g.spacing * np.arange(1, n_ext + 1)
    ys = np.concatenate([left, g.points, right])
    fy = np.concatenate([np.maximum(-C * (1.0 + np.abs(left)), f.f(left)), fv,
                         np.maximum(-C * (1.0 + np.abs(right)), f.f(right))])
    # Legendre form: the minimiser maximises the line x y - b(y), with
    # b = tau f(y) + y^2/2; one stack pass over ys keeps the upper envelope of
    # these lines (the lower convex hull of the points (y, b))
    b = tau * fy + 0.5 * ys * ys
    breaks = np.diff(b) / np.diff(ys)
    if np.all(breaks[1:] > breaks[:-1]):  # rising chords: the pass pops none
        hull = np.arange(ys.size)
    else:
        yl, bl = ys.tolist(), b.tolist()
        hull, slopes = [0], [-np.inf]
        for k in range(1, len(yl)):
            while ((s := (bl[k] - bl[hull[-1]]) / (yl[k] - yl[hull[-1]]))
                   <= slopes[-1]):
                hull.pop()
                slopes.pop()
            hull.append(k)
            slopes.append(s)
        hull, breaks = np.asarray(hull), np.asarray(slopes[1:])

    def envelope(x):
        x = np.asarray(x, float)
        j = hull[np.searchsorted(breaks, x, side="right")]
        jj = np.clip(np.add.outer(np.arange(-2, 3), j), 0, ys.size - 1)
        cll, cl, best, cr, crr = fy[jj] + (x - ys[jj]) ** 2 / (2.0 * tau)
        # sub-grid refinement: a parabola through the discrete minimum and
        # its neighbours; for smooth costs this removes the O(spacing^2)
        # discretization bias of the discrete minimum
        interior = (j > 1) & (j < ys.size - 2)
        curv = cl + cr - 2.0 * best
        with np.errstate(divide="ignore", invalid="ignore"):
            vertex = best - (cr - cl) ** 2 / (8.0 * curv)
        # only trust the parabola where the cost is locally smooth: the fit
        # must also predict the second neighbours (it fails at kinks, where
        # the refinement would undercut the true minimum)
        misfit = np.maximum(np.abs(cll - (best + (cl - cr) + 2.0 * curv)),
                            np.abs(crr - (best + (cr - cl) + 2.0 * curv)))
        use = (interior & (curv > 0) & np.isfinite(vertex)
               & (misfit <= 0.05 * curv + 1e-12))
        return np.where(use, np.minimum(best, vertex), best)

    return envelope


# ---------------------------------------------------------------------------
# closed forms for the quadratic extremiser family


def quadratic_datum(a: float, alpha: float, grid: Grid1D) -> HJField:
    """f = (1/a) log(gamma_alpha / gamma) = log w, w the tilt of gamma_alpha
    by (1/a, 1/a), as an HJField with its exact f'' = (1 - 1/alpha)/a."""
    if a <= 0 or alpha <= 0:
        raise ParameterError("a and alpha must be positive")
    ratio = tilt(LogQuad.gaussian(alpha), 1.0 / a, 1.0 / a).tag
    return HJField(GridField.from_callable(grid, ratio.log_at), ratio.d2log)


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


def _laplacian_margin(f: HJField, bound: float) -> float:
    """min Delta f - bound over the grid nodes 2..n-3, from the exact f''
    that f must carry."""
    if f.laplacian is None:
        raise ParameterError("the datum carries no exact f''")
    return float(np.min(f.laplacian(f.f.grid.points[2:-2])) - bound)


def _integrability_margin(f: HJField, a: float, beta_a: float) -> float:
    """Interior-peak proxy for int e^{2af} gamma/gamma_{beta(a)} dgamma:
    1 when the log-integrand peaks inside the grid, -1 when not."""
    # against dx the integrand is e^{2af} gamma^2 / gamma_{beta(a)}
    ratio = tilt(LogQuad.gaussian(beta_a), -1.0, -2.0)
    log_integrand = 2.0 * a * f.f.values + ratio.log(f.f.grid.points)
    return 1.0 if interior_peak(log_integrand) else -1.0


def hj_hc_check(f: HJField, a: float, tau: float, beta: float,
                rule: QuadratureRule) -> DeficitReport:
    """Hamilton-Jacobi hypercontractivity deficit:

        ||e^{Q_tau f}||_{a+tau}
            <= ||e^{Q_tau[(1/a) log(gamma_{beta(a)}/gamma)]}||_{a+tau}
               ||e^f||_a.
    """
    if a <= 0 or tau <= 0:
        raise ParameterError("a and tau must be positive")
    if beta <= 1:
        raise ParameterError("requires beta > 1")
    if beta * (1.0 - 1.0 / a) >= 1.0:
        raise ParameterError("admissibility beta(1 - 1/a) < 1 violated")
    ba = beta_of_a(a, beta)
    hyps = [HypothesisCheck("beta(1-1/a)<1",
                            1.0 - beta * (1.0 - 1.0 / a), 0.0),
            HypothesisCheck("laplacian>=1-1/beta",
                            _laplacian_margin(f, 1.0 - 1.0 / beta), 1e-6),
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
    at the two small values a in {0.01, 0.005} (hopf_lax reads the linear
    lower bound off f).  The limit identity defining T is evaluated at
    a = 0.01 and recorded in params.
    """
    if tau <= 0:
        raise ParameterError("tau must be positive")
    if beta <= 1:
        raise ParameterError("requires beta > 1")
    hyps = [HypothesisCheck("laplacian>=1-1/beta",
                            _laplacian_margin(f, 1.0 - 1.0 / beta), 1e-6)]
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
