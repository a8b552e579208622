"""
Hopf-Lax infimal convolution and the Hamilton-Jacobi forms of
hypercontractivity and the dual Talagrand inequality.

The Hopf-Lax minimum over the M sampled candidates is read off the lower
envelope of parabolas in O(M + N log M) (Felzenszwalb & Huttenlocher,
Distance Transforms of Sampled Functions, Theory of Computing 8, 2012);
beyond the grid the initial datum is continued by its exact closure (data
known only at the nodes by a Lipschitz line), never below its linear lower
bound -C(1+|y|), so that no spurious boundary minimum appears.  The
envelope is the exact closure of the field hopf_lax returns, and the checks
read Q_tau f and the datum through their closures at the quadrature nodes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .families import LogQuad
from .functionals import _log_lp, _rule_or_default, sharp_constant, tilt
from .numerics import (Grid1D, GridField, ParameterError, QuadratureRule,
                       interior_peak, second_difference)
from .reports import DeficitReport, HypothesisCheck


@dataclass(frozen=True)
class HJField:
    """Initial datum for the Hamilton-Jacobi flow (a function, not a density).

    lower_linear_bound C certifies f(x) >= -C(1+|x|); it is verified on the
    grid at construction and used to extend f beyond the grid.  laplacian,
    when given, is the exact f''; data without one are differenced.
    """

    f: GridField
    lipschitz_estimate: float
    lower_linear_bound: float
    laplacian: Optional[Callable] = None

    def __post_init__(self):
        if self.lower_linear_bound < 0:
            raise ParameterError("lower linear bound C must be nonnegative")
        x = self.f.grid.points
        gap = self.f.values + self.lower_linear_bound * (1.0 + np.abs(x))
        if np.min(gap) < -1e-9:
            raise ParameterError(
                f"f(x) >= -C(1+|x|) fails on the grid by {np.min(gap):.3e}")

    @staticmethod
    def from_field(f: GridField, laplacian: Callable = None) -> "HJField":
        """f with its Lipschitz estimate and bound C read off its values."""
        lip = float(np.max(np.abs(np.gradient(f.values, f.grid.spacing,
                                              edge_order=2))))
        C = max(0.0, float(np.max(-f.values / (1.0 + np.abs(f.grid.points)))))
        return HJField(f, lip, C, laplacian)

    def extended(self, y: np.ndarray) -> np.ndarray:
        """f inside the grid; outside, the larger of the certified bound
        -C(1+|y|) and f's exact closure or, for data known only at the
        nodes, the Lipschitz continuation f(edge) - L |y - edge|: the
        truncated infimum neither misses exterior minima nor invents
        spurious ones from an overly slack bound."""
        y = np.asarray(y, float)
        g = self.f.grid
        inside = (y >= g.lo) & (y <= g.hi)
        if self.f.analytic is not None or self.f.analytic_log is not None:
            vals = beyond = np.asarray(self.f(y), float)
        else:
            vals = np.asarray(self.f(np.clip(y, g.lo, g.hi)), float)
            dist = np.maximum(np.maximum(g.lo - y, y - g.hi), 0.0)
            edge = np.where(y < g.lo, self.f.values[0], self.f.values[-1])
            beyond = edge - self.lipschitz_estimate * dist
        out = np.maximum(-self.lower_linear_bound * (1.0 + np.abs(y)), beyond)
        return np.where(inside, vals, out)


def hopf_lax(f: HJField, tau: float) -> GridField:
    """Q_tau f(x) = min_y { f(y) + |x-y|^2 / (2 tau) } over the grid and
    its linear extension, from the lower envelope of the parabolas.

    The field's exact closure reads that envelope at any x, so Q_tau f is
    evaluated off the grid (at quadrature nodes) as it is at the nodes."""
    if tau <= 0:
        raise ParameterError("tau must be positive")
    g = f.f.grid
    C = f.lower_linear_bound
    # candidate points: the grid plus linear-bound extension segments wide
    # enough to contain the extension minimizer y = x -+ C tau
    ext = (C + f.lipschitz_estimate) * tau + 4.0 * max(1.0, tau)
    # the cap flows._grid_density_family puts on its pad; tested before any
    # allocation (a NaN extension fails it too)
    if not ext / g.spacing <= 64 * (g.n - 1):
        raise ParameterError(
            f"Hopf-Lax at tau={tau:g} needs {ext:.3g} of linear extension on "
            f"each side of the grid, more than 64 grid widths")
    n_ext = int(np.ceil(ext / g.spacing))
    left = g.lo - g.spacing * np.arange(n_ext, 0, -1)
    right = g.hi + g.spacing * np.arange(1, n_ext + 1)
    ys = np.concatenate([left, g.points, right])
    fy = np.concatenate([f.extended(left), f.f.values, f.extended(right)])
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

    return GridField.from_callable(g, envelope)


# ---------------------------------------------------------------------------
# closed forms for the quadratic extremiser family


def quadratic_datum(a: float, alpha: float, grid: Grid1D) -> HJField:
    """f = (1/a) log(gamma_alpha / gamma) = log w, w the tilt of gamma_alpha
    by (1/a, 1/a), as an HJField with its exact f'' = (1 - 1/alpha)/a."""
    if a <= 0 or alpha <= 0:
        raise ParameterError("a and alpha must be positive")
    ratio = tilt(LogQuad.gaussian(alpha), 1.0 / a, 1.0 / a).tag
    fld = GridField.from_callable(grid, ratio.log_at)
    curv = (1.0 - 1.0 / alpha) / a  # f(x) = curv x^2/2 + const
    if curv >= 0:
        C = max(0.0, -float(ratio.c[0]))
    else:
        # quadratic opens downward: linear minorant touches at the grid edge
        C = max(0.0, float(
            np.max(-fld.values / (1.0 + np.abs(grid.points)))) + 1e-12)
    lip = float(abs(curv) * max(abs(grid.lo), abs(grid.hi)))
    return HJField(fld, lip, C, ratio.d2log)


def hopf_lax_quadratic(a: float, alpha: float, tau: float):
    """Closed form Q_tau[(1/a) log(gamma_alpha/gamma)] (valid for alpha >= 1):

    (1/(2 tau)) (delta/(delta+1)) |x|^2 - (1/(2a)) log alpha,
    delta = (tau/a)(1 - 1/alpha).  Returns (quadratic coefficient of x^2/2,
    constant term).
    """
    delta = (tau / a) * (1.0 - 1.0 / alpha)
    coef = (delta / (delta + 1.0)) / tau
    const = -0.5 * np.log(alpha) / a
    return float(coef), float(const)


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
    when f carries one, else the second difference of its samples."""
    if f.laplacian is not None:
        lap = f.laplacian(f.f.grid.points[2:-2])
    else:
        lap = second_difference(f.f.values, f.f.grid.spacing)
    return float(np.min(lap) - bound)


def _integrability_margin(f: HJField, a: float, beta_a: float) -> float:
    """Interior-peak proxy for int e^{2af} gamma/gamma_{beta(a)} dgamma:
    1 when the log-integrand peaks inside the grid, -1 when not."""
    # against dx the integrand is e^{2af} gamma^2 / gamma_{beta(a)}
    ratio = tilt(LogQuad.gaussian(beta_a), -1.0, -2.0)
    log_integrand = 2.0 * a * f.f.values + ratio.log(f.f.grid.points)
    return 1.0 if interior_peak(log_integrand) else -1.0


def hj_hc_check(f: HJField, a: float, tau: float, beta: float,
                rule: QuadratureRule = None) -> DeficitReport:
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
    rule = _rule_or_default(rule)
    ba = beta_of_a(a, beta)
    hyps = [HypothesisCheck("beta(1-1/a)<1", True,
                            1.0 - beta * (1.0 - 1.0 / a))]
    lap = _laplacian_margin(f, 1.0 - 1.0 / beta)
    hyps.append(HypothesisCheck("laplacian>=1-1/beta", lap >= -1e-6, lap))
    integ = _integrability_margin(f, a, ba)
    hyps.append(HypothesisCheck("exp-moment-integrable", integ > 0, integ))

    z, log_w = rule.nodes, rule.log_weights
    lhs = float(np.exp(_log_lp(hopf_lax(f, tau)(z), a + tau, log_w)))
    coef, const = hopf_lax_quadratic(a, ba, tau)
    log_ref = LogQuad(coef, 0.0, const).log_lp_norm_gauss(a + tau)
    log_ef = _log_lp(f.f(z), a, log_w)
    rhs = float(np.exp(log_ref + log_ef))
    return DeficitReport.build(
        "hj-hypercontractivity", lhs, rhs, float(np.exp(log_ref)),
        hypotheses=hyps,
        params={"a": a, "tau": tau, "beta": beta, "beta_a": ba,
                "norm_ef": float(np.exp(log_ef))})


def dual_talagrand_check(f: HJField, tau: float, beta: float,
                         rule: QuadratureRule = None) -> DeficitReport:
    """Dual Talagrand deficit: ||e^{Q_tau f}||_tau <= T(tau, beta) e^{int f}.

    Hypotheses: the linear lower bound (carried by HJField) and the
    uniform-subharmonicity / exponential-moment condition at the two small
    values a in {0.01, 0.005}.  The limit identity defining T is evaluated
    at a = 0.01 and recorded in params.
    """
    if tau <= 0:
        raise ParameterError("tau must be positive")
    if beta <= 1:
        raise ParameterError("requires beta > 1")
    rule = _rule_or_default(rule)
    lap = _laplacian_margin(f, 1.0 - 1.0 / beta)
    hyps = [HypothesisCheck("laplacian>=1-1/beta", lap >= -1e-6, lap)]
    for a in (0.01, 0.005):
        integ = _integrability_margin(f, a, beta_of_a(a, beta))
        hyps.append(HypothesisCheck(f"exp-moment-integrable(a={a})",
                                    integ > 0, integ))

    lhs = float(np.exp(_log_lp(hopf_lax(f, tau)(rule.nodes), tau,
                               rule.log_weights)))
    t_const = sharp_constant("hj_t", tau=tau, beta=beta).value
    mean_f = float(np.asarray(f.f(rule.nodes), float) @ rule.weights)
    rhs = t_const * float(np.exp(mean_f))

    a0 = 0.01
    coef, const = hopf_lax_quadratic(a0, beta_of_a(a0, beta), tau)
    t_limit = float(np.exp(
        LogQuad(coef, 0.0, const).log_lp_norm_gauss(a0 + tau)))
    return DeficitReport.build(
        "dual-talagrand", lhs, rhs, t_const, hypotheses=hyps,
        params={"tau": tau, "beta": beta, "mean_f": mean_f,
                "t_limit_at_a=0.01": t_limit,
                "t_limit_gap": t_limit - t_const})
