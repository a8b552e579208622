"""
Fokker-Planck evolution, the regularised class FP(beta), and log-curvature
certificates.

The beta-Fokker-Planck flow d/dt v = beta Lap v + x . grad v + n v has the
exact solution

    v_t(x) = (2 pi w)^{-n/2} int exp(-|x - e^{-t} y|^2 / (2 w)) dmu(y),
    w = beta (1 - e^{-2t}),

which we always evaluate in one shot, never by time-stepping: mu is a
GridField density, flowing on its own grid, or a finite MeasureSpec; every
v_t is a Gaussian mixture, one LogQuad with a component per atom, and
tagged densities take the closed form of their tag.  An untagged grid
density is integrated by the trapezoid rule on its node lattice, padded
past the grid with its closure's values, wide enough that the outermost
atoms carry posterior weight below 2^-53 at every node read, so v_t is the
flow of the whole density and not of its cut-off.  The kernel is smooth, so
the rule converges exponentially and the source is subsampled on nested
strided levels, halved until two levels agree in log v_t and (log v_t)'';
each level adds the atoms between the previous level's to it, so every atom
is evaluated once.  FP(beta) is the set of time-(1/2)log 2 snapshots of the
2 beta-flow started from a finite measure; its members are automatically
beta-semi-log-convex.  The certificates measure the signed margin of a
log-curvature bound and return it as a reports.HypothesisCheck that carries
the tolerance it is judged at.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .families import LogQuad, field_from_family
from .numerics import (Grid1D, GridField, ParameterError, PositivityError,
                       TruncationError, _coarsest_stride, _refine_strides,
                       default_grid)
from .reports import HypothesisCheck

logger = logging.getLogger(__name__)

T_STAR = 0.5 * float(np.log(2.0))

# log of the posterior weight below which an outermost source atom is
# negligible at a node
_LOG_EDGE_WEIGHT = -53.0 * float(np.log(2.0))
_LOG2 = float(np.log(2.0))


@dataclass(frozen=True)
class MeasureSpec:
    """A finite discrete measure: atoms at ``points`` with ``weights``."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        p, w = (np.asarray(a, float) for a in (self.points, self.weights))
        if p.shape != w.shape or p.ndim != 1:
            raise ParameterError("points/weights must be matching 1-D arrays")
        if np.any(w < 0) or not np.isfinite(w.sum()):
            raise ParameterError("weights must be nonnegative with finite mass")
        object.__setattr__(self, "points", p)
        object.__setattr__(self, "weights", w)


# ---------------------------------------------------------------------------
# flow


def _atoms_family(points, logw, beta: float, t: float) -> LogQuad:
    """v_t of the discrete measure with log-weights logw at points, as one
    LogQuad with a component per atom (atoms of zero weight dropped) that
    is evaluated about its components' exact centres."""
    keep = logw > -np.inf
    if not np.any(keep):
        raise ParameterError("the initial measure has no mass")
    w = beta * (1.0 - np.exp(-2.0 * t))
    mu = np.exp(-t) * points[keep]
    q = LogQuad.gaussian(w, mu)
    peak = logw[keep] - 0.5 * np.log(2.0 * np.pi * w)

    def about(s):
        # L_k(s + u) = peak_k - (s + u - mu_k)^2 / (2 w)
        d = mu - s
        return (np.broadcast_to(-1.0 / w, d.shape), d / w,
                peak - d * d / (2.0 * w))

    return LogQuad(q.a, q.b, q.c + logw[keep], _about=about)


def _grid_density_family(src: GridField, beta: float, t: float, x):
    """v_t of an untagged grid density, read at the nodes x.

    The source is the trapezoid measure on the grid's node lattice, run
    past the grid at the same spacing, every atom weighing its spacing times
    the closure's value: the pad starts at the kernel's standard deviation
    in source coordinates and doubles, on the coarsest level, until the two
    outermost atoms have posterior weight below 2^-53 at every x, which
    _edge_weight reads at the two end nodes of x.  Once the pad has
    settled, the coarsest level is evaluated at x.  Then the stride halves
    until two levels agree in log v_t and (log v_t)'' within 1e-12 (1 +
    1/w), w = beta (1 - e^{-2t}) setting the scale of (log v_t)''; an
    unresolved source ends at stride 1.  The level at stride k is the level
    at 2k, its weights halved, plus the odd atoms -pad + k, -pad + 3k, ...:
    only these are evaluated at x, and _merge_odd merges them into the level
    in place, so each atom of the finest level is evaluated at x once.  The
    snapshot's family is built from the finest level and is not evaluated
    at x.  Returns (family, source mass, (log v_t, (log v_t)'') at x).
    """
    grid, x = src.grid, np.asarray(x, float)
    h, n = grid.spacing, grid.n
    w = beta * (1.0 - np.exp(-2.0 * t))
    k0 = _coarsest_stride(1 << ((n - 1).bit_length() - 1))
    pad = k0 * int(np.ceil(np.exp(t) * np.sqrt(w) / (k0 * h)))
    debug = logger.isEnabledFor(logging.DEBUG)
    pairs, bound, pad_checks = 0.0, 0.0, 0

    def atoms(k, first, step):
        """Lattice atoms first, first + step, ... at stride k: their
        positions and log weights log(k h v)."""
        y = grid.lo + h * np.arange(first - pad, n + pad, step)
        return y, np.log(k * h) + src.log(y)

    def run(q, at, order, sink=None):
        """q's pass at the points ``at``, its (node, atom) pairs counted."""
        nonlocal pairs, bound
        if debug:
            share, dropped = q.window_share(at)
            pairs += share * at.size * q.a.size
            bound = max(bound, dropped)
        return q._pass(at, order, sink=sink)

    def coarsest():
        """The coarsest level's family, once its pad has settled, or None
        when the level has no mass.  The pad is settled here, before any
        refinement: a cut-off source has a kink at the grid edge, so its
        levels never agree.  A coarse level can miss a narrow source or the
        teeth of a comb: the pad is then settled on the odd atoms of the
        first finer level with mass."""
        nonlocal pad, pad_checks
        while True:
            k, (y, logw) = k0, atoms(k0, 0, k0)
            while k > 1 and not np.any(logw > -np.inf):
                k //= 2
                y, logw = atoms(k, k, 2 * k)
            q = _atoms_family(y, logw, beta, t)
            pad_checks += 1
            if _edge_weight(lambda at: run(q, at, 0)[0],
                            np.exp(-t) * y[[0, -1]], logw[[0, -1]], w,
                            x) <= _LOG_EDGE_WEIGHT:
                return q if k == k0 else None
            if pad >= 64 * (n - 1):
                raise TruncationError("the closure does not decay past "
                                      "the grid: no pad makes its edge "
                                      "negligible")
            pad *= 2

    def evaluate(q):
        return [np.require(r, requirements="W") for r in run(q, x, 2)]

    lev = None  # (log v_t, (log v_t)', (log v_t)'') of the current level

    def refine(k):
        nonlocal lev
        if k == k0:
            q = coarsest()
            lev = None if q is None else evaluate(q)
            return np.nan
        y, logw = atoms(k, k, 2 * k)
        if not np.any(logw > -np.inf):  # no odd atom has mass
            if lev is None:
                return np.nan
            lev[0] -= _LOG2  # the coarse level, its weights halved
            return _LOG2
        q = _atoms_family(y, logw, beta, t)
        if lev is None:  # a massless coarse level: the odd atoms alone
            lev = evaluate(q)
            return np.inf
        return _merge_odd(lev, lambda sink: run(q, x, 2, sink))

    k, g = _refine_strides(refine, k0, 1e-12 * (1.0 + 1.0 / w))
    q = _atoms_family(*atoms(k, 0, k), beta, t)
    if debug:
        levels = (k0 // k).bit_length()
        logger.debug("FP snapshot beta=%g t=%g: %d levels, %d pad checks, "
                     "pad %d nodes, stride %d, level gap %.3g, pairs "
                     "evaluated %.3f, dropped-term bound %.3g", beta, t,
                     levels, pad_checks, pad, k, g,
                     pairs / (x.size * q.a.size), bound)
    return q, q.integral_lebesgue(), (lev[0], lev[2])


def _edge_weight(log_v, mu, logw, w: float, x) -> float:
    """Largest log posterior weight at the points x of the two outermost
    atoms of a flowed lattice: kernel centres mu = (leftmost, rightmost),
    log weights logw, kernel variance w, and log v_t the callable log_v.
    Every exponent differs from the leftmost atom's by a linear function of
    x with slope (mu_k - mu_0) / w >= 0, so the leftmost atom's weight falls
    with x and the rightmost's rises: they are read at x.min() and x.max()
    alone, which needs v_t at two points, not at every x."""
    ends = np.array([np.min(x), np.max(x)])
    d = ends - mu
    return float(np.max(logw - 0.5 * np.log(2.0 * np.pi * w)
                        - d * d / (2.0 * w) - log_v(ends)))


def _merge_odd(lev, odd_pass):
    """Merge a level's odd atoms into the level at twice its stride.

    ``lev`` holds (log v, (log v)', (log v)'') of the coarse level and is
    overwritten with the fine level's; ``odd_pass(sink)`` runs the odd
    atoms' pass, handing its rows to ``sink`` block by block.  With S the
    sums of the atoms' kernels, the coarse level's halved, S = S_c / 2 +
    S_o, and with lam = S_o / S the posterior mean and variance of the
    slopes combine as two groups do (Chan, Golub & LeVeque 1979):

        m = m_c + lam (m_o - m_c),
        V = V_c + lam (V_o - V_c) + lam (1 - lam) (m_c - m_o)^2.

    Every atom has the same a = -1/w, so (log v)'' = a + V combines as V
    does, and a is never subtracted.  Returns the largest gap in log v and
    (log v)'' between the two levels, taken before the coarse one is
    overwritten.
    """
    gap = 0.0

    def sink(block, rows):
        nonlocal gap
        logv, mean, hess = (r[block] for r in lev)
        logv_o, dm, dh = rows  # the odd atoms' rows, reused in place
        fine = np.logaddexp(logv - _LOG2, logv_o)
        z = np.subtract(logv_o, fine, out=logv_o)  # log lam
        lam = np.exp(z)
        dm -= mean
        dh -= hess
        dh *= lam
        mean += lam * dm
        lam *= np.expm1(z, out=z)  # -lam (1 - lam), 1 - lam to full digits
        dm *= dm
        dh -= lam * dm  # the fine level's (log v)'' less the coarse one's
        gap = np.maximum(np.maximum(gap, np.max(np.abs(fine - logv))),
                         np.max(np.abs(dh)))
        logv[...] = fine
        hess += dh

    odd_pass(sink)
    return float(gap)


def _fp_family(v0, beta: float, t: float, x):
    """v_t as one LogQuad with a component per atom of the source, a
    MeasureSpec or a GridField density.

    A tagged density flows its tag, with the tag's exact mass, and an
    untagged one goes through _grid_density_family, reading v_t at the
    nodes x.  Returns (family, mass of the density that flowed or None for
    a measure, (log v_t, (log v_t)'') at x or None when the family was not
    evaluated there).
    """
    if beta * (1.0 - np.exp(-2.0 * t)) < 1e-10:
        raise ParameterError("flow time too small: kernel variance below 1e-10")
    if isinstance(v0, MeasureSpec):
        with np.errstate(divide="ignore"):
            logw = np.log(v0.weights)
        return _atoms_family(v0.points, logw, beta, t), None, None
    if isinstance(v0.tag, LogQuad):
        return v0.tag.fp(beta, t), v0.tag.integral_lebesgue(), None
    if np.any(v0.values < 0):
        raise PositivityError("a density must be nonnegative")
    return _grid_density_family(v0, beta, t, x)


def _check_mass(mass0: float, mass_t: float):
    if abs(mass_t - mass0) > 1e-6 * max(abs(mass0), 1.0):
        raise TruncationError(
            f"mass drift {mass_t - mass0:.3e} along the flow; widen the grid")


def fp_evolve(v0, beta: float, t: float,
              grid: Optional[Grid1D] = None) -> GridField:
    """One-shot kernel evaluation of the beta-Fokker-Planck flow at time t
    of a GridField density, on its own grid and keeping its mass, or of a
    MeasureSpec, placed on ``grid`` (default_grid when left out)."""
    if beta <= 0:
        raise ParameterError("diffusion speed beta must be positive")
    if not np.isfinite(t) or t < 0:
        raise ParameterError("flow time must be finite and nonnegative")
    measure = isinstance(v0, MeasureSpec)
    if not measure and grid is not None:
        raise ParameterError("a density flows on its own grid; pass no grid")
    if t == 0.0 and not measure:
        return v0
    grid = grid or (default_grid() if measure else v0.grid)
    # the levels of an untagged density already hold v_t at the nodes
    family, mass0, at_x = _fp_family(v0, beta, t, grid.points)
    out = field_from_family(grid, family, at_x)
    if not measure:
        _check_mass(mass0, out.grid_mass)
    return out


def fp_class_member(mu, beta: float,
                    grid: Optional[Grid1D] = None) -> GridField:
    """Snapshot of the 2 beta-flow of mu at t* = (1/2) log 2, mu and grid as
    fp_evolve takes them: a member of FP(beta)."""
    return fp_evolve(mu, 2.0 * beta, T_STAR, grid=grid)


# ---------------------------------------------------------------------------
# certificates


def _margin(kind: str, beta: float, hess) -> float:
    """The signed margin of ``kind`` (see certify) from (log v)''."""
    if kind in ("subharmonic", "convex"):
        return float(np.min(hess + 1.0 / beta))
    if kind in ("concave", "superharmonic"):
        return float(np.min(-1.0 / beta - hess))
    raise ParameterError(f"unknown certificate kind {kind!r}")


def certify(v: GridField, kind: str, beta: float,
            tol: Optional[float] = None) -> HypothesisCheck:
    """Measure the log-curvature bound defining each semi-log property, as
    a HypothesisCheck named ``kind`` with tolerance ``tol`` (1e-4/beta when
    left out); a caller reporting it renames it with dataclasses.replace.

    Margins are signed so that margin >= -tol certifies, over the grid
    nodes 2..n-3:
      subharmonic, convex:    min((log v)'' + 1/beta)
      concave, superharmonic: min(-1/beta - (log v)'')

    On the line the Laplacian and the Hessian are both (log v)'', so
    subharmonic/convex coincide, as do concave/superharmonic.

    (log v)'' is the field's node array (GridField.grid_d2log), from the
    first of three sources that applies:
      1. the pass that made the values, which field_from_family runs for a
         LogQuad (every FP snapshot): the exact posterior moments of its
         components; a tilted field takes its node array from the field it
         tilts;
      2. the field's analytic_d2log at the nodes, as
         GridField.from_callable(d2log_fn=) sets it;
      3. numerics.second_difference of log v at the nodes, for a field
         without a d2log closure: differenced at the grid spacing h, not
         at h = 1e-4, with an error of about h^2 (log v)''''/12 plus
         4 eps |log v| / h^2 of rounding.
    """
    if beta <= 0:
        raise ParameterError("beta must be positive")
    if v.analytic_log is None and np.any(v.values <= 0):
        raise PositivityError("certification from samples requires v > 0")
    if tol is None:
        tol = 1e-4 / beta
    return HypothesisCheck(kind, _margin(kind, beta, v.grid_d2log()), tol)


def certify_log_concave(*factors: GridField) -> HypothesisCheck:
    """(log v)'' <= 0 for the product v of the factors, the beta -> infinity
    limit of semi-log-concavity: "log-concave", at the factor margin that is
    the worse, with tolerance 1e-6."""
    margin = min(certify(v, "concave", 1e18).margin for v in factors)
    return HypothesisCheck("log-concave", margin, 1e-6)


def certify_matrix(v1: GridField, v2: GridField, B: np.ndarray,
                   side: str) -> HypothesisCheck:
    """Certificate grad^2 log v >= -B^{-1} (side='convex') or <= -B^{-1}
    for the product density v = v1 (x) v2 on R^2 and an SPD 2 x 2 matrix B.

    The margin is the worst eigenvalue of grad^2 log v + B^{-1} (resp. its
    negation) over pairs of interior points.  grad^2 log v(x1, x2) is
    diag(h1(x1), h2(x2)) with h_i = (log v_i)'', and every eigenvalue of
    diag(h1, h2) + B^{-1} is nondecreasing in h1 and h2, so the worst pair
    takes each factor's smallest (convex) or largest (concave) h_i.  The
    check is named "hessian-<side>-vs-B" and passes at margin >= -1e-4.
    """
    if side not in ("convex", "concave"):
        raise ParameterError("side must be 'convex' or 'concave'")
    B = np.asarray(B, float)
    if B.shape != (2, 2):
        raise ParameterError("B must be a 2 x 2 matrix")
    extreme = np.min if side == "convex" else np.max
    h = [extreme(v.grid_d2log()) for v in (v1, v2)]
    eigs = np.linalg.eigvalsh(np.diag(h) + np.linalg.inv(B))
    margin = eigs[0] if side == "convex" else -eigs[-1]
    return HypothesisCheck(f"hessian-{side}-vs-B", float(margin), 1e-4)


def preservation_trace(v0: GridField, beta: float, kind: str,
                       times: Iterable[float]):
    """Certificate margins of v_t along the flow, plus the universal bound.

    Returns (margins, universal_margins): the universal bound is
    grad^2 log v_t >= -1/((1 - e^{-2t}) beta), valid for arbitrary initial
    measures.
    """
    margins = []
    universal = []
    for t in times:
        t = float(t)
        # fp_evolve's one pass gives the mass check and both margins
        vt = fp_evolve(v0, beta, t)
        margins.append(certify(vt, kind, beta).margin)
        if t == 0.0:
            universal.append(np.nan)
            continue
        bound = 1.0 / ((1.0 - np.exp(-2.0 * t)) * beta)
        universal.append(float(np.min(vt.grid_d2log() + bound)))
    return np.asarray(margins), np.asarray(universal)


# ---------------------------------------------------------------------------
# moments


def check_density(v: GridField, mass: Optional[float] = None):
    """Refuse v unless it is a probability density: ``mass`` (by default
    its trapezoid mass) within 1e-6 of 1, and no negative value."""
    mass = v.grid_mass if mass is None else mass
    if abs(mass - 1.0) > 1e-6:
        raise ParameterError(f"density not normalized: mass = {mass:.8f}")
    if np.any(v.values < 0):
        raise ParameterError("density must be nonnegative")


def moments(v: GridField):
    """(mass, mean, variance) of v: its tag's closed form, else trapezoid
    sums, int x v dx and int x^2 v dx less its square."""
    if isinstance(v.tag, LogQuad):
        return v.tag.moments()
    x = v.grid.points
    mass, mean, second = (float(np.trapezoid(g * v.values, dx=v.grid.spacing))
                          for g in (1.0, x, x * x))
    return mass, mean, second - mean * mean


def covariance(v: GridField) -> np.ndarray:
    """Covariance matrix (1 x 1) of a probability density."""
    mass, _, var = moments(v)
    check_density(v, mass)
    return np.array([[var]])
