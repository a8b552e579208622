"""
Fokker-Planck evolution, the regularised class FP(beta), and log-curvature
certificates.

The beta-Fokker-Planck flow d/dt v = beta Lap v + x . grad v + n v has the
exact solution

    v_t(x) = (2 pi w)^{-n/2} int exp(-|x - e^{-t} y|^2 / (2 w)) dmu(y),
    w = beta (1 - e^{-2t}),

which we always evaluate in one shot, never by time-stepping: mu is a
GridField density, flowing on its own grid (fp_evolve), or a finite
measure, placed on a grid the caller names (fp_measure); every
v_t is a Gaussian mixture, one LogQuad with a component per atom, and
tagged densities take the closed form of their tag.  An untagged grid
density is integrated by the trapezoid rule on its node lattice, padded
past the grid with its closure's values, wide enough that the outermost
atoms carry posterior weight below 2^-53 at every node read, so v_t is the
flow of the whole density and not of its cut-off.  The kernel is smooth, so
the rule converges exponentially and the source is subsampled on nested
strided levels, halved until two levels agree in log v_t and (log v_t)'';
each level adds the atoms between the previous level's to it, so every atom
is evaluated once.  A level's atoms y_m = lo + m h lie on the grid's
lattice, so with theta = e^{-t} the identity (x_i - theta y_m)^2 =
theta (x_i - y_m)^2 + (1 - theta) x_i^2 - theta (1 - theta) y_m^2 splits
each kernel term into a node factor, an atom factor and G(i - m) =
exp(-kappa (i - m)^2), kappa = theta h^2 / (2 w).  For a block of nodes
i = i_c + u and its window of atoms m = m_c + s v, tilting G by the integer
offset d* = i_c - m_c leaves, besides terms in u or v alone, which go to
the factors, the cross term 2 kappa s u v: every block of a level reads
one matrix exp(2 kappa s u v), built with one exp call (_lattice_pass).
FP(beta) is the set of time-(1/2)log 2 snapshots of the 2 beta-flow
started from a finite measure; its members are automatically
beta-semi-log-convex.  Every certificate reads (log v)'' through
curvature and returns the signed margin of a log-curvature bound as a
reports.HypothesisCheck that carries the tolerance it is judged at.
"""
from __future__ import annotations

import logging
from typing import Callable, Iterable, Optional

import numpy as np

from .families import LogQuad, field_from_family
from .numerics import (Grid1D, GridField, ParameterError, PositivityError,
                       TruncationError, logsumexp)
from .reports import HypothesisCheck

logger = logging.getLogger(__name__)

T_STAR = 0.5 * float(np.log(2.0))

# log of the posterior weight below which an outermost source atom is
# negligible at a node
_LOG_EDGE_WEIGHT = -53.0 * float(np.log(2.0))
_LOG2 = float(np.log(2.0))
# _lattice_pass: nodes per block at most, cells per chunk array at most,
# and the largest |exponent| of its shared matrix
_ROWS, _CELLS, _MAX_TILT = 64, 1 << 13, 200.0


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


def _coarsest_stride(intervals: int) -> int:
    """The first of the nested levels: the largest power-of-two stride that
    divides the interval count and leaves at least 64 intervals."""
    k = 1
    while intervals % (2 * k) == 0 and intervals >= 128 * k:
        k *= 2
    return k


def _refine_strides(refine: Callable, k: int, tol: float):
    """Halve the stride from k until two successive levels agree.

    ``refine(k)`` evaluates the level at stride k and returns how far it
    disagrees with the level evaluated before it (NaN for the first).  The
    caller holds the levels, so a level may be built in place from the one
    before it, as long as the gap is taken before the older level is
    overwritten.  Returns (k, gap) at the first level within ``tol`` of the
    one before it; an unresolved level sequence ends at stride 1.  The gap
    is NaN when only one level was evaluated.
    """
    g = refine(k)
    while k > 1 and not g <= tol:
        k //= 2
        g = refine(k)
    return k, g


def _grid_density_family(src: GridField, beta: float, t: float):
    """v_t of an untagged grid density, read at the grid's nodes x.

    The source is the trapezoid measure on the grid's node lattice, run
    past the grid at the same spacing, every atom weighing its spacing times
    the closure's value.  The pad starts at the kernel's reach, e^t sqrt(w)
    / h nodes, halved while the closure half as far out lies 745 below its
    largest node value (e^-745 is below the smallest double), and doubles,
    on the coarsest level, until the two outermost atoms have posterior
    weight below 2^-53 at every x (_edge_weight).  Then the stride halves
    until two levels agree in log v_t and (log v_t)'' within 1e-12 (1 +
    1/w), w = beta (1 - e^{-2t}); an unresolved source ends at stride 1.
    The level at stride k is the level at 2k, its weights halved, plus the
    odd atoms -pad + k, -pad + 3k, ...: only these are evaluated at x, by
    _lattice_pass, and _merge_odd merges them into the level in place, so
    each atom of the finest level is evaluated at x once, and the
    snapshot's family, built from it, not at all.  Returns (family, source
    mass, (log v_t, (log v_t)'') at x).
    """
    grid, x = src.grid, src.grid.points
    h, n = grid.spacing, grid.n
    w = beta * (1.0 - np.exp(-2.0 * t))
    k0 = _coarsest_stride(1 << ((n - 1).bit_length() - 1))
    pad = min(np.exp(t) * np.sqrt(w) / h, 64 * (n - 1))
    with np.errstate(divide="ignore"):
        floor = np.log(np.max(src.values)) - 745.0
    while pad > k0 and np.max(src.log(
            grid.lo + 0.5 * h * np.array([-pad, 2 * (n - 1) + pad]))) < floor:
        pad /= 2
    pad = k0 * int(np.ceil(pad / k0))
    cells, bound, pad_checks = 0, 0.0, 0

    def atoms(k, first, step):
        """Lattice atoms first, first + step, ... at stride k: their
        positions and log weights log(k h v)."""
        y = grid.lo + h * np.arange(first - pad, n + pad, step)
        return y, np.log(k * h) + src.log(y)

    def run(y, logw):
        """The lattice pass of the atoms y at x, its cells counted."""
        nonlocal cells, bound
        rows, c, dropped = _lattice_pass(x, y, logw, beta, t)
        cells += c
        bound = max(bound, dropped)
        return rows

    def coarsest():
        """The coarsest level's atoms, once its pad has settled, or None
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
            if not np.any(logw > -np.inf):
                raise ParameterError("the initial measure has no mass")
            pad_checks += 1
            if _edge_weight(np.exp(-t) * y, logw, w, x) <= _LOG_EDGE_WEIGHT:
                return (y, logw) if k == k0 else None
            if pad >= 64 * (n - 1):
                raise TruncationError("the closure does not decay past "
                                      "the grid: no pad makes its edge "
                                      "negligible")
            pad *= 2

    lev = None  # (log v_t, (log v_t)', (log v_t)'') of the current level

    def refine(k):
        nonlocal lev
        if k == k0:
            level = coarsest()
            lev = None if level is None else run(*level)
            return np.nan
        y, logw = atoms(k, k, 2 * k)
        if not np.any(logw > -np.inf):  # no odd atom has mass
            if lev is None:
                return np.nan
            lev[0] -= _LOG2  # the coarse level, its weights halved
            return _LOG2
        if lev is None:  # a massless coarse level: the odd atoms alone
            lev = run(y, logw)
            return np.inf
        return _merge_odd(lev, run(y, logw))

    k, g = _refine_strides(refine, k0, 1e-12 * (1.0 + 1.0 / w))
    q = _atoms_family(*atoms(k, 0, k), beta, t)
    if logger.isEnabledFor(logging.DEBUG):
        levels = (k0 // k).bit_length()
        logger.debug("FP snapshot beta=%g t=%g: %d levels, %d pad checks, "
                     "pad %d nodes, stride %d, level gap %.3g, pairs "
                     "evaluated %.3f, dropped-term bound %.3g", beta, t,
                     levels, pad_checks, pad, k, g,
                     cells / (x.size * q.a.size), bound)
    return q, q.integral_lebesgue(), (lev[0], lev[2])


def _lattice_pass(x, points, logw, beta: float, t: float):
    """The pass of _atoms_family(points, logw, beta, t) at the grid nodes x
    for atoms on a lattice: rows (log v_t, (log v_t)', (log v_t)''), the
    (node, atom) cells of its products and the bound 2^-53 (M - W) / M on
    its dropped terms.

    Blocks of ``rows`` nodes (at most _ROWS) each sum a window of W atoms,
    W the widest hull of the atoms within 53 log 2 + log M of the largest
    exponent at a block end.  Exponents differ by linear functions of x,
    rising with the atom's index, so an atom past the hull's right (left)
    end stays that far below the largest exponent at the block's right
    (left) end on the whole block.  About the block's centre node x_c and
    the window's centre atom c0, atom c's exponent at x = x_c + u h is
    L_c(x_c) + s (x - x_c) - (x - x_c)^2 / (2 w) + (d h / w) u (c - c0),
    s = (mu_c0 - x_c) / w and d the step of the kernel centres mu_c: each
    block weighs the shared matrix exp((d h / w) u (c - c0)) by
    exp(L_c(x_c) - max).  One product gives the posterior sums of 1 and
    c - c0, a second the variance of c about the centre row's posterior
    mean.  Rows halve until the matrix's exponents lie within +-_MAX_TILT,
    so that no factor that matters overflows or falls subnormal.
    """
    w, mu = beta * (1.0 - np.exp(-2.0 * t)), np.exp(-t) * points
    peak = logw - 0.5 * np.log(2.0 * np.pi * w)
    M, n = mu.size, x.size
    d, h = (mu[-1] - mu[0]) / max(M - 1, 1), (x[-1] - x[0]) / (n - 1)
    cut = 53.0 * _LOG2 + np.log(M)
    # the exponents at a node p, less -p^2 / (2 w), are base + rate p
    base, rate = peak - mu * mu / (2.0 * w), mu / w
    rows, step = _ROWS, max(1, _CELLS // M)
    while True:
        ends = x[np.append(np.arange(0, n, rows), n - 1)]
        first, last = np.empty((2, ends.size), int)
        for i in range(0, ends.size, step):
            L = base[:, None] + np.multiply.outer(rate, ends[i:i + step])
            near = L >= L.max(axis=0) - cut
            first[i:i + step] = near.argmax(axis=0)
            last[i:i + step] = M - near[::-1].argmax(axis=0)
        lo = np.minimum(first[:-1], first[1:])
        hi = np.maximum(last[:-1], last[1:])
        W = int(np.max(hi - lo))
        c0, tilt = W // 2, d * h / w
        if rows == 1 or tilt * (rows // 2) * c0 <= _MAX_TILT:
            break
        rows //= 2
    starts = np.clip(lo - (W - (hi - lo)) // 2, 0, M - W)
    c = np.arange(W) - c0
    kern = np.exp(tilt * np.multiply.outer(c, np.arange(rows) - rows // 2))
    both = np.hstack([kern, kern * c[:, None]])
    # the last block's rows past x[-1] are computed and dropped
    xs = np.concatenate([x, x[-1] + h * np.arange(1, rows)])
    out = np.empty((3, xs.size))
    chunk = max(1, _CELLS // W)
    for b in range(0, starts.size, chunk):
        at = starts[b:b + chunk, None] + np.arange(W)
        i0 = b * rows
        nodes = xs[i0:i0 + at.shape[0] * rows].reshape(-1, rows)
        xc = nodes[:, rows // 2, None]
        dx = nodes - xc
        L = mu[at] - xc
        slope = L[:, c0, None] / w
        L = peak[at] - 0.5 * L * L / w
        top = L.max(axis=1, keepdims=True)
        p = np.exp(L - top)
        sums = p @ both
        s0 = sums[:, :rows]
        mean = sums[:, rows:] / s0
        mid = mean[:, rows // 2, None]
        var = (p * (c - mid) ** 2 @ kern) / s0 - (mean - mid) ** 2
        for row, part in zip(out, (
                np.log(s0) + top + dx * (slope - 0.5 * dx / w),
                slope - dx / w + (d / w) * mean,
                (d / w) ** 2 * var - 1.0 / w)):
            row[i0:i0 + dx.size] = part.ravel()
    return out[:, :n], starts.size * rows * W, (M - W) / M / 2.0**53


def _edge_weight(mu, logw, w: float, x) -> float:
    """Largest log posterior weight at the points x of the two outermost
    atoms of a flowed lattice: kernel centres mu and log weights logw of
    all its M atoms, in order, and kernel variance w.  Every exponent
    differs from the leftmost atom's by a linear function of x with slope
    (mu_k - mu_0) / w >= 0, so the leftmost atom's weight falls with x and
    the rightmost's rises: they are read at x.min() and x.max() alone,
    log v_t there being one log-sum-exp of the 2 x M exponents."""
    d = np.array([[np.min(x)], [np.max(x)]]) - mu
    L = logw - 0.5 * np.log(2.0 * np.pi * w) - d * d / (2.0 * w)
    return float(np.max(L[[0, 1], [0, -1]] - logsumexp(L, axis=-1)))


def _merge_odd(lev, odd):
    """Merge a level's odd atoms into the level at twice its stride.

    ``lev`` holds (log v, (log v)', (log v)'') of the coarse level and is
    overwritten with the fine level's; ``odd`` holds the odd atoms' rows,
    reused in place.  With S the sums of the atoms' kernels, the coarse
    level's halved, S = S_c / 2 + S_o, and with lam = S_o / S the posterior
    mean and variance of the slopes combine as two groups do (Chan, Golub &
    LeVeque 1979):

        m = m_c + lam (m_o - m_c),
        V = V_c + lam (V_o - V_c) + lam (1 - lam) (m_c - m_o)^2.

    Every atom has the same a = -1/w, so (log v)'' = a + V combines as V
    does, and a is never subtracted.  Returns the largest gap in log v and
    (log v)'' between the two levels, taken before the coarse one is
    overwritten.
    """
    logv, mean, hess = lev
    logv_o, dm, dh = odd
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
    gap = max(np.max(np.abs(fine - logv)), np.max(np.abs(dh)))
    logv[...] = fine
    hess += dh
    return float(gap)


def _check_flow(beta: float, t: float):
    """Refuse a beta that is not positive, a t that is not finite and
    nonnegative, and a kernel variance beta (1 - e^{-2t}) below 1e-10."""
    if not beta > 0:
        raise ParameterError("diffusion speed beta must be positive")
    if not np.isfinite(t) or t < 0:
        raise ParameterError("flow time must be finite and nonnegative")
    if beta * (1.0 - np.exp(-2.0 * t)) < 1e-10:
        raise ParameterError("flow time too small: kernel variance below 1e-10")


def fp_evolve(v0: GridField, beta: float, t: float) -> GridField:
    """One-shot kernel evaluation of the beta-Fokker-Planck flow at time t
    of a GridField density, on its own grid and keeping its mass.

    A tagged density flows its tag, with the tag's exact mass; an untagged
    one goes through _grid_density_family, whose levels already hold
    (log v_t, (log v_t)'') at the nodes."""
    if t == 0.0 and beta > 0:  # the start of the flow
        return v0
    _check_flow(beta, t)
    if isinstance(v0.tag, LogQuad):
        family, mass0, at_x = (v0.tag.fp(beta, t),
                               v0.tag.integral_lebesgue(), None)
    elif np.any(v0.values < 0):
        raise PositivityError("a density must be nonnegative")
    else:
        family, mass0, at_x = _grid_density_family(v0, beta, t)
    out = field_from_family(v0.grid, family, at_x)
    drift = out.grid_mass - mass0
    if abs(drift) > 1e-6 * max(abs(mass0), 1.0):
        raise TruncationError(
            f"mass drift {drift:.3e} along the flow; widen the grid")
    return out


def fp_measure(points, weights, beta: float, t: float,
               grid: Grid1D) -> GridField:
    """The beta-Fokker-Planck flow at time t of the finite measure with
    atoms at ``points`` and ``weights``, on ``grid``: one LogQuad with a
    component per atom of positive weight.  FP(beta) is its snapshots at
    beta -> 2 beta, t = T_STAR."""
    points, weights = (np.asarray(a, float) for a in (points, weights))
    if points.shape != weights.shape or points.ndim != 1:
        raise ParameterError("points/weights must be matching 1-D arrays")
    if np.any(weights < 0) or not np.isfinite(weights.sum()):
        raise ParameterError("weights must be nonnegative with finite mass")
    _check_flow(beta, t)
    with np.errstate(divide="ignore"):
        logw = np.log(weights)
    return field_from_family(grid, _atoms_family(points, logw, beta, t))


# ---------------------------------------------------------------------------
# certificates


def curvature(v: GridField) -> tuple[float, float]:
    """(inf, sup) of (log v)'' over the grid nodes 2..n-3: the one reading
    of every curvature hypothesis.  On the line the Laplacian and the
    Hessian are both (log v)'', so beta-semi-log-subharmonic and -convex
    are one lower bound on it, -superharmonic and -concave one upper bound.

    (log v)'' is the field's node array (GridField.grid_d2log), from the
    first of two sources that applies:
      1. the pass that made the values, which field_from_family runs for a
         LogQuad (every FP snapshot): the exact posterior moments of its
         components; a tilted field takes its node array from the field it
         tilts;
      2. the field's analytic_d2log at the nodes, as
         GridField.from_callable(d2log_fn=) sets it.
    A field with neither is refused with a ParameterError.
    """
    if v.analytic_log is None and np.any(v.values <= 0):
        raise PositivityError("certification from samples requires v > 0")
    d2 = v.grid_d2log()
    return float(np.min(d2)), float(np.max(d2))


def semi_log_convex(v: GridField, beta: float, name: str) -> HypothesisCheck:
    """``name``: (log v)'' >= -1/beta, margin inf + 1/beta, tol 1e-4/beta."""
    if beta <= 0:
        raise ParameterError("beta must be positive")
    return HypothesisCheck(name, curvature(v)[0] + 1.0 / beta, 1e-4 / beta)


def semi_log_concave(v: GridField, beta: float,
                     name: str) -> HypothesisCheck:
    """``name``: (log v)'' <= -1/beta, margin -1/beta - sup, tol 1e-4/beta."""
    if beta <= 0:
        raise ParameterError("beta must be positive")
    return HypothesisCheck(name, -1.0 / beta - curvature(v)[1], 1e-4 / beta)


def _symmetric_2x2(B) -> np.ndarray:
    """B as floats; refused unless 2 x 2, finite and symmetric to 1e-12
    max |B|."""
    B = np.asarray(B, float)
    if B.shape != (2, 2):
        raise ParameterError("B must be a 2 x 2 matrix")
    if not np.all(np.isfinite(B)):
        raise ParameterError("B must be finite")
    if np.max(np.abs(B - B.T)) > 1e-12 * np.max(np.abs(B)):
        raise ParameterError("B must be symmetric")
    return B


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
    B = _symmetric_2x2(B)
    h = [curvature(v)[0 if side == "convex" else 1] for v in (v1, v2)]
    eigs = np.linalg.eigvalsh(np.diag(h) + np.linalg.inv(B))
    margin = eigs[0] if side == "convex" else -eigs[-1]
    return HypothesisCheck(f"hessian-{side}-vs-B", float(margin), 1e-4)


def preservation_trace(v0: GridField, beta: float, kind: str,
                       times: Iterable[float]):
    """Margins of v_t along the flow for the hypothesis ``kind``, convex or
    subharmonic, concave or superharmonic, plus the universal bound.

    Returns (margins, universal_margins): the universal bound is
    grad^2 log v_t >= -1/((1 - e^{-2t}) beta), valid for arbitrary initial
    measures.
    """
    if kind in ("convex", "subharmonic"):
        check = semi_log_convex
    elif kind in ("concave", "superharmonic"):
        check = semi_log_concave
    else:
        raise ParameterError(f"unknown certificate kind {kind!r}")
    margins = []
    universal = []
    for t in times:
        t = float(t)
        # fp_evolve's one pass gives the mass check and both margins
        vt = fp_evolve(v0, beta, t)
        margins.append(check(vt, beta, kind).margin)
        if t == 0.0:
            universal.append(np.nan)
            continue
        bound = 1.0 / ((1.0 - np.exp(-2.0 * t)) * beta)
        universal.append(curvature(vt)[0] + bound)
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
    sums, the mean and second moment normalised by the mass as the tag's
    are."""
    if isinstance(v.tag, LogQuad):
        return v.tag.moments()
    x = v.grid.points
    mass, mean, second = (float(np.trapezoid(g * v.values, dx=v.grid.spacing))
                          for g in (1.0, x, x * x))
    return mass, mean / mass, second / mass - (mean / mass) ** 2

