"""
One-dimensional quadratic optimal transport.

Brenier maps are quantile compositions T = F_nu^{-1} o F_mu.  Densities
with closed-form CDFs (Gaussians, mixtures) go through numerics.ndtr with
Newton refinement; grid-only densities use cumulative Simpson CDFs
inverted by monotone interpolation on a clipped quantile range.  On top of
the maps: W_2, Talagrand deficits, Caffarelli slope checks, and the
general-potential LSI comparison.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .families import LogQuad, field_from_family
from .flows import certify, certify_log_concave
from .functionals import _rule_or_default, sharp_constant, tilt
from .numerics import (Grid1D, GridField, ParameterError, QuadratureRule,
                       cumulative_simpson, second_difference)
from .reports import DeficitReport, HypothesisCheck

QUANTILE_CLIP = 1e-7  # interior quantile range for grid-path CDF inversion


@dataclass(frozen=True)
class DensitySpec:
    """A normalized probability density with optional exact CDF."""

    field: GridField
    cdf: Optional[object] = None  # callable F(x) when a closed form exists

    def __post_init__(self):
        mass = self.field.grid_mass
        if abs(mass - 1.0) > 1e-6:
            raise ParameterError(f"density not normalized: mass = {mass:.8f}")
        if np.any(self.field.values < 0):
            raise ParameterError("density must be nonnegative")

    @staticmethod
    def gaussian(beta: float, grid: Grid1D, mean: float = 0.0) -> "DensitySpec":
        return DensitySpec.from_family(LogQuad.gaussian(beta, mean), grid)

    @staticmethod
    def from_family(fam, grid: Grid1D) -> "DensitySpec":
        mass, cdf = fam.mass_and_cdf()
        if abs(mass - 1.0) > 1e-6:
            raise ParameterError(f"family not normalized: mass = {mass:.8f}")
        return DensitySpec(field_from_family(grid, fam), cdf)

    @staticmethod
    def from_field(field: GridField) -> "DensitySpec":
        if isinstance(field.tag, LogQuad):
            _, cdf = field.tag.mass_and_cdf()
            return DensitySpec(field, cdf)
        return DensitySpec(field)

    def cdf_values(self, x: np.ndarray) -> np.ndarray:
        if self.cdf is not None:
            return np.asarray(self.cdf(x), float)
        g = self.field.grid
        F = cumulative_simpson(self.field.values, dx=g.spacing, initial=0.0)
        F = np.maximum.accumulate(F / F[-1])
        return np.interp(x, g.points, F)


@dataclass(frozen=True)
class QuantileMap:
    source: DensitySpec
    target: DensitySpec
    map_values: np.ndarray  # T on the source grid, non-decreasing

    @property
    def grid(self) -> Grid1D:
        return self.source.field.grid

    def derivative(self) -> np.ndarray:
        return np.gradient(self.map_values, self.grid.spacing, edge_order=2)

    def monge_ampere_residual(self) -> float:
        """max interior |mu(x) - nu(T(x)) T'(x)|."""
        mu = self.source.field.values
        nuT = self.target.field(self.map_values)
        res = np.abs(mu - nuT * self.derivative())
        return float(np.max(res[2:-2]))


def _invert_cdf(u: np.ndarray, nu: DensitySpec) -> np.ndarray:
    g = nu.field.grid
    x = g.points
    F = nu.cdf_values(x)
    F = np.maximum.accumulate(F)
    t = np.interp(u, F, x)
    if nu.cdf is not None:
        # Newton refinement against the exact CDF (pdf = density values)
        for _ in range(3):
            pdf = np.asarray(nu.field(t), float)
            step = np.where(pdf > 1e-12, (nu.cdf_values(t) - u)
                            / np.maximum(pdf, 1e-12), 0.0)
            t = np.clip(t - step, x[0], x[-1])
    return t


def brenier_1d(mu: DensitySpec, nu: DensitySpec) -> QuantileMap:
    """Monotone transport map T = F_nu^{-1} o F_mu on the source grid."""
    x = mu.field.grid.points
    u = mu.cdf_values(x)
    clip = 1e-15 if (mu.cdf is not None and nu.cdf is not None) \
        else QUANTILE_CLIP
    u = np.clip(u, clip, 1.0 - clip)
    T = _invert_cdf(u, nu)
    T = np.maximum.accumulate(T)
    if np.any(np.diff(T) < -1e-12):
        raise ParameterError("non-monotone transport map reconstruction")
    return QuantileMap(mu, nu, T)


def w2(mu: DensitySpec, nu: DensitySpec) -> float:
    """Quadratic Wasserstein distance via the Brenier map."""
    T = brenier_1d(mu, nu)
    x = mu.field.grid.points
    cost = np.trapezoid((x - T.map_values) ** 2 * mu.field.values,
                        dx=mu.field.grid.spacing)
    return float(np.sqrt(max(cost, 0.0)))


# ---------------------------------------------------------------------------
# entropy against gamma


def relative_entropy_gauss(v: GridField,
                           rule: Optional[QuadratureRule] = None) -> float:
    """Ent_gamma(v/gamma) = int v log(v/gamma) dx for a probability density."""
    rule = _rule_or_default(rule)
    lf = tilt(v, 1.0, 1.0).log(rule.nodes)
    return float((np.exp(lf) * lf) @ rule.weights)


# ---------------------------------------------------------------------------
# Talagrand deficit


def _centered(v: DensitySpec):
    """Center the density at mean zero; returns (spec, shift)."""
    if isinstance(v.field.tag, LogQuad):
        _, mean, _ = v.field.tag.moments()
    else:
        x = v.field.grid.points
        mean = float(np.trapezoid(x * v.field.values,
                                  dx=v.field.grid.spacing))
    if abs(mean) < 1e-12:
        return v, 0.0
    tag = v.field.tag
    if isinstance(tag, LogQuad):
        shifted = LogQuad(tag.a,
                          tag.b + tag.a * mean,
                          tag.c + 0.5 * tag.a * mean**2 + tag.b * mean)
        return DensitySpec.from_family(shifted, v.field.grid), mean
    g = v.field.grid
    vals = np.interp(g.points + mean, g.points, v.field.values,
                     left=0.0, right=0.0)
    vals /= np.trapezoid(vals, dx=g.spacing)
    return DensitySpec(GridField(g, vals)), mean


def talagrand_deficit(v: DensitySpec, beta: float) -> DeficitReport:
    """(1/2) W_2(gamma, v)^2 - Ent_gamma(v/gamma) <= n(1 + log(beta)/2 - sqrt(beta)).

    Hypotheses: for beta > 1, 0 >= grad^2 log v >= -id/beta; for beta < 1,
    beta-semi-log-concavity.  The inequality is asserted only when they pass.
    """
    field = v.field
    hyps = []
    if beta >= 1:
        conv = certify(field, "convex", beta)
        logc = certify_log_concave(field)
        hyps.append(HypothesisCheck("semi-log-convex(beta)", conv.passed,
                                    conv.margin))
        hyps.append(HypothesisCheck("log-concave", logc.passed, logc.margin))
    else:
        conc = certify(field, "concave", beta)
        hyps.append(HypothesisCheck("semi-log-concave(beta)", conc.passed,
                                    conc.margin))
    centered, shift = _centered(v)
    cost = w2(DensitySpec.gaussian(1.0, field.grid), centered) ** 2
    ent = relative_entropy_gauss(centered.field)
    lhs = 0.5 * cost - ent
    const = sharp_constant("talagrand_gauss", beta=beta).value
    params = {"beta": beta, "w2_sq": cost, "entropy": ent,
              "centering_shift": shift}
    if beta < 1:
        params["mikulincer_bound"] = sharp_constant("mikulincer",
                                                    beta=beta).value
    return DeficitReport.build("talagrand", lhs, const, const,
                               hypotheses=hyps, params=params)


def caffarelli_check(v: DensitySpec, beta: float) -> float:
    """max T' for the map gamma -> v; bounded by sqrt(beta) for
    beta-semi-log-concave targets."""
    cert = certify(v.field, "concave", beta)
    if not cert.passed:
        raise ParameterError(
            f"target not beta-semi-log-concave (margin {cert.margin:.2e})")
    T = brenier_1d(DensitySpec.gaussian(1.0, v.field.grid), v)
    # restrict to where the source CDF is still resolvable in double
    # precision: beyond |x| ~ 7.5 the tail 1 - F(x) < 1e-13 quantizes and
    # the finite-difference T' degenerates into a staircase
    x = T.grid.points
    bulk = np.abs(x) <= 6.0
    return float(np.max(T.derivative()[bulk]))


# ---------------------------------------------------------------------------
# general-potential LSI (non-Gaussian reference measure)


@dataclass(frozen=True)
class PotentialSpec:
    """Potential V with convexity window K <= V'' <= L on the grid."""

    V: GridField
    K: float
    L: float

    def __post_init__(self):
        if self.K <= 0 or self.L < self.K:
            raise ParameterError("need 0 < K <= L")

    def density(self, beta: float = 1.0):
        """Normalized e^{-V/beta} on the grid; returns (values, log_values)."""
        g = self.V.grid
        logv = -self.V.values / beta
        vals = np.exp(logv - logv.max())
        Z = np.trapezoid(vals, dx=g.spacing)
        return vals / Z, logv - logv.max() - np.log(Z)

    def vpp_margins(self):
        """(min V'' - K, L - max V'') over the grid nodes 2..n-3, by the
        second difference of the samples of V."""
        vpp = second_difference(self.V.values, self.V.grid.spacing)
        return float(np.min(vpp) - self.K), float(self.L - np.max(vpp))


def general_lsi_deficit(v: DensitySpec, pot: PotentialSpec,
                        beta: float) -> DeficitReport:
    """Compare the LSI deficit of v against the deficit of m_beta.

    For reference d m = Z^{-1} e^{-V} dx with K <= V'' <= L, symmetric V and
    v, (log v)'' >= -K/beta:

        Ent_m(v/m) - I_m(v/m)/(2K)
          <= [same at v = m_beta] + (1 - 1/beta)(L - K)/K,

    where m_beta = Z_beta^{-1} e^{-V/beta}.
    """
    if beta <= 1:
        raise ParameterError("requires beta > 1")
    h = pot.V.grid.spacing
    mvals, mlog = pot.density(1.0)
    mbvals, mblog = pot.density(beta)

    lo_margin, hi_margin = pot.vpp_margins()
    tol = 1e-4
    hyps = [HypothesisCheck("V''>=K", lo_margin >= -tol, lo_margin),
            HypothesisCheck("V''<=L", hi_margin >= -tol, hi_margin)]

    vf = v.field
    vcert = certify(vf, "convex", beta / pot.K)  # (log v)'' >= -K/beta
    hyps.append(HypothesisCheck("(log v)''>=-K/beta", vcert.passed,
                                vcert.margin))
    sym_v = float(np.max(np.abs(vf.values - vf.values[::-1])))
    sym_V = float(np.max(np.abs(pot.V.values - pot.V.values[::-1])))
    scale_v = np.max(vf.values)
    hyps.append(HypothesisCheck("symmetry", sym_v <= 1e-8 * scale_v
                                and sym_V <= 1e-8 * max(1, np.max(
                                    np.abs(pot.V.values))),
                                -max(sym_v, sym_V)))
    vprime = np.gradient(pot.V.values, h, edge_order=2)
    tail = max(abs(vprime[0] * vf.values[0]), abs(vprime[-1] * vf.values[-1]))
    hyps.append(HypothesisCheck("|V'| v -> 0", tail <= 1e-8, -tail))

    def ent_fisher_against_m(dens_vals, dens_log):
        rel = dens_log - mlog
        ent = float(np.trapezoid(dens_vals * rel, dx=h))
        drel = np.gradient(rel, h, edge_order=2)
        fisher = float(np.trapezoid(dens_vals * drel * drel, dx=h))
        return ent, fisher

    ent_v, fi_v = ent_fisher_against_m(vf.values, vf.grid_log())
    ent_b, fi_b = ent_fisher_against_m(mbvals, mblog)

    K = pot.K
    lhs = ent_v - fi_v / (2 * K)
    correction = (1.0 - 1.0 / beta) * (pot.L - K) / K
    rhs = ent_b - fi_b / (2 * K) + correction
    return DeficitReport.build(
        "general-lsi", lhs, rhs, rhs - correction,
        hypotheses=hyps,
        params={"beta": beta, "K": K, "L": pot.L,
                "reference_deficit": ent_b - fi_b / (2 * K),
                "correction": correction})
