"""
One-dimensional quadratic optimal transport between densities given as
GridFields.

Brenier maps are quantile compositions T = F_nu^{-1} o F_mu, read at the
source's nodes.  Every entry point first checks that its fields are
probability densities (flows.check_density); a map takes their CDFs there:
a field tagged with a closed-form family (a LogQuad: Gaussians, mixtures)
has its exact CDF through numerics.ndtr (gamma's kept once per grid), any
other field the cumulative Simpson sum of its values.  F_nu is inverted by
monotone interpolation on the nodes, refined by Newton steps where nu has
an exact CDF, and on a clipped quantile range where either CDF is a
Simpson sum.  On top of the maps: W_2, Talagrand deficits, Caffarelli
slope checks (the slope read exactly, by Monge-Ampere, from the
densities), and the general-potential LSI comparison.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .families import _GAMMA, LogQuad, gaussian_field
from .flows import (check_density, curvature, moments, semi_log_concave,
                    semi_log_convex)
from .functionals import entropy_fisher, sharp_constant, tilt
from .numerics import (Grid1D, GridField, ParameterError, QuadratureRule,
                       cumulative_simpson)
from .reports import DeficitReport, HypothesisCheck

QUANTILE_CLIP = 1e-7  # interior quantile range for grid-path CDF inversion


@lru_cache(maxsize=16)
def _gamma_cdf(grid: Grid1D) -> np.ndarray:
    """Phi at the grid's nodes, built once per grid and read-only; the
    standard Gaussian's density check on the grid runs when it is built."""
    check_density(gaussian_field(grid, 1.0))
    F = _GAMMA.cdf()(grid.points)
    F.setflags(write=False)
    return F


def _density_cdf(v: GridField):
    """Check that v is a probability density on its grid (check_density);
    return (its CDF at the nodes, the exact CDF closure or None).  A field
    of gaussian_field(grid, 1) reads _gamma_cdf's array."""
    if v.tag is _GAMMA:
        return _gamma_cdf(v.grid), _GAMMA.cdf()
    check_density(v)
    if isinstance(v.tag, LogQuad):
        cdf = v.tag.cdf()
        return np.asarray(cdf(v.grid.points), float), cdf
    F = cumulative_simpson(v.values, dx=v.grid.spacing, initial=0.0)
    return np.maximum.accumulate(F / F[-1]), None


def brenier_1d(mu: GridField, nu: GridField) -> np.ndarray:
    """Monotone transport map T = F_nu^{-1} o F_mu at the source's nodes."""
    u, mu_cdf = _density_cdf(mu)
    F, nu_cdf = _density_cdf(nu)
    clip = QUANTILE_CLIP if mu_cdf is None or nu_cdf is None else 1e-15
    u = np.clip(u, clip, 1.0 - clip)
    x = nu.grid.points
    T = np.interp(u, np.maximum.accumulate(F), x)
    if nu_cdf is not None:
        # Newton refinement against the exact CDF (pdf = density values)
        for _ in range(3):
            pdf = nu(T)
            step = np.where(pdf > 1e-12, (nu_cdf(T) - u)
                            / np.maximum(pdf, 1e-12), 0.0)
            T = np.clip(T - step, x[0], x[-1])
    if np.any(np.diff(T) < -1e-12):
        raise ParameterError("non-monotone transport map reconstruction")
    return np.maximum.accumulate(T)


def w2(mu: GridField, nu: GridField) -> float:
    """Quadratic Wasserstein distance via the Brenier map."""
    T = brenier_1d(mu, nu)
    cost = np.trapezoid((mu.grid.points - T) ** 2 * mu.values,
                        dx=mu.grid.spacing)
    return float(np.sqrt(max(cost, 0.0)))


# ---------------------------------------------------------------------------
# Talagrand deficit


def talagrand_deficit(v: GridField, beta: float,
                      rule: QuadratureRule) -> DeficitReport:
    """(1/2) W_2(gamma, v)^2 - Ent_gamma(v/gamma) <= n(1 + log(beta)/2 - sqrt(beta)).

    Hypotheses: for beta > 1, 0 >= grad^2 log v >= -id/beta; for beta < 1,
    beta-semi-log-concavity.  The inequality is asserted only when they pass.

    The entropy is entropy_fisher's of v/gamma, as the LSI checks read it.
    Both terms are taken at v itself: translating v by its mean m adds m^2
    to W_2^2 and m^2/2 to the entropy, so the deficit does not see m.
    ``w2_sq`` and ``entropy`` are reported for the centred density.
    """
    cost = w2(gaussian_field(v.grid, 1.0), v) ** 2  # checks v first
    ent = entropy_fisher(tilt(v, 1.0, 1.0), rule).entropy
    mean = moments(v)[1]
    if beta >= 1:
        hyps = [semi_log_convex(v, beta, "semi-log-convex(beta)"),
                HypothesisCheck("log-concave", -curvature(v)[1], 1e-6)]
    else:
        hyps = [semi_log_concave(v, beta, "semi-log-concave(beta)")]
    lhs = 0.5 * cost - ent
    const = sharp_constant("talagrand_gauss", beta=beta)
    params = {"beta": beta, "w2_sq": cost - mean**2,
              "entropy": ent - 0.5 * mean**2, "centering_shift": mean}
    if beta < 1:
        params["mikulincer_bound"] = sharp_constant("mikulincer", beta=beta)
    return DeficitReport("talagrand", lhs, const, const, hypotheses=hyps,
                         params=params)


def caffarelli_check(v: GridField, beta: float) -> float:
    """max T' for the map gamma -> v; bounded by sqrt(beta) for
    beta-semi-log-concave targets."""
    cert = semi_log_concave(v, beta, "semi-log-concave(beta)")
    if not cert.passed:
        raise ParameterError(
            f"target not beta-semi-log-concave (margin {cert.margin:.2e})")
    gamma = gaussian_field(v.grid, 1.0)
    # T' = gamma(x) / v(T(x)) by Monge-Ampere, read where the map is
    # resolved: past |x| ~ 7.9 the quantile clip flattens T
    bulk = np.abs(v.grid.points) <= 6.0
    T = brenier_1d(gamma, v)[bulk]
    return float(np.max(gamma.values[bulk] / v(T)))


# ---------------------------------------------------------------------------
# general-potential LSI (non-Gaussian reference measure)


@dataclass(frozen=True)
class PotentialSpec:
    """The reference e^{-V} with convexity window K <= V'' <= L: a field
    whose log, dlog and d2log closures are -V, -V' and -V''."""

    reference: GridField
    K: float
    L: float

    def __post_init__(self):
        if self.K <= 0 or self.L < self.K:
            raise ParameterError("need 0 < K <= L")


def _log_mass(logu: np.ndarray, h: float) -> float:
    """log of the trapezoid integral of the samples e^logu at spacing h."""
    top = logu.max()
    return float(top + np.log(np.trapezoid(np.exp(logu - top), dx=h)))


def general_lsi_deficit(v: GridField, pot: PotentialSpec,
                        beta: float) -> DeficitReport:
    """Compare the LSI deficit of v against the deficit of m_beta.

    For reference d m = Z^{-1} e^{-V} dx with K <= V'' <= L, symmetric V and
    v, (log v)'' >= -K/beta:

        Ent_m(v/m) - I_m(v/m)/(2K)
          <= [same at v = m_beta] + (1 - 1/beta)(L - K)/K,

    where m_beta = Z_beta^{-1} e^{-V/beta}.  V and V' at the nodes are the
    reference's node log and dlog closure, and the range of V'' is the
    reference's flows.curvature, negated; (log v)' is v's dlog closure, and
    m, m_beta are normalised by the trapezoid rule at the nodes.  The
    integrals are trapezoid sums over the grid.
    """
    if beta <= 1:
        raise ParameterError("requires beta > 1")
    check_density(v)
    ref, x = pot.reference, v.grid.points
    if ref.grid != v.grid:
        raise ParameterError("v and the reference need one grid")
    h = ref.grid.spacing
    V = -ref.grid_log()
    lo, hi = curvature(ref)  # of (log e^{-V})'' = -V''
    vprime = -ref.dlog(x)
    mlog = -V - _log_mass(-V, h)
    mblog = -V / beta - _log_mass(-V / beta, h)

    # x -> -x through the closures, which holds on any grid; relative to
    # the scales of v and V
    sym_v = np.max(np.abs(v.values - v(-x))) / np.max(v.values)
    sym_V = np.max(np.abs(V + ref.log(-x))) / max(1, np.max(np.abs(V)))
    tail = max(abs(vprime[0] * v.values[0]), abs(vprime[-1] * v.values[-1]))
    hyps = [HypothesisCheck("V''>=K", -hi - pot.K, 1e-4),
            HypothesisCheck("V''<=L", pot.L + lo, 1e-4),
            semi_log_convex(v, beta / pot.K, "(log v)''>=-K/beta"),
            HypothesisCheck("symmetry", -float(max(sym_v, sym_V)), 1e-8),
            HypothesisCheck("|V'| v -> 0", -float(tail), 1e-8)]

    def ent_fisher_against_m(dens, logd, dlogd):
        """Ent_m and I_m of the density d at the nodes, from log d and
        (log d)' there; (log m)' = -V'."""
        drel = dlogd + vprime
        return (float(np.trapezoid(dens * (logd - mlog), dx=h)),
                float(np.trapezoid(dens * drel * drel, dx=h)))

    ent_v, fi_v = ent_fisher_against_m(v.values, v.grid_log(), v.dlog(x))
    ent_b, fi_b = ent_fisher_against_m(np.exp(mblog), mblog, -vprime / beta)

    K = pot.K
    lhs = ent_v - fi_v / (2 * K)
    correction = (1.0 - 1.0 / beta) * (pot.L - K) / K
    rhs = ent_b - fi_b / (2 * K) + correction
    return DeficitReport(
        "general-lsi", lhs, rhs, rhs - correction, hypotheses=hyps,
        params={"beta": beta, "K": K, "L": pot.L,
                "reference_deficit": ent_b - fi_b / (2 * K),
                "correction": correction})
