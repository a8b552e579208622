"""
Fokker-Planck evolution, the regularised class FP(beta), and log-curvature
certificates.

The beta-Fokker-Planck flow d/dt v = beta Lap v + x . grad v + n v has the
exact solution

    v_t(x) = (2 pi w)^{-n/2} int exp(-|x - e^{-t} y|^2 / (2 w)) dmu(y),
    w = beta (1 - e^{-2t}),

which we always evaluate in one shot, never by time-stepping: every v_t is
a Gaussian mixture, one LogQuad with a component per atom (a grid density
counts as the discrete measure on its nodes with trapezoid weights), and
tagged densities take the closed form of their tag.  FP(beta) is the set of
time-(1/2)log 2 snapshots of the 2 beta-flow started from a finite measure;
its members are automatically beta-semi-log-convex.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .families import LogQuad, field_from_family
from .numerics import (Grid1D, GridField, ParameterError, PositivityError,
                       TruncationError, default_grid, log_derivatives)

T_STAR = 0.5 * float(np.log(2.0))


def _trapz(field: GridField) -> float:
    """Trapezoid mass over the grid, without a tail check."""
    if field.ndim == 1:
        return float(np.trapezoid(field.values, dx=field.grid.spacing))
    return float(np.trapezoid(
        np.trapezoid(field.values, dx=field.grid.gy.spacing, axis=1),
        dx=field.grid.gx.spacing))


@dataclass(frozen=True)
class FPParams:
    beta: float
    t: float

    def __post_init__(self):
        if self.beta <= 0:
            raise ParameterError("diffusion speed beta must be positive")
        if not np.isfinite(self.t) or self.t < 0:
            raise ParameterError("flow time must be finite and nonnegative")


@dataclass(frozen=True)
class MeasureSpec:
    kind: str  # "dirac" | "discrete" | "density"
    points: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None
    density: Optional[GridField] = None

    @staticmethod
    def dirac(point: float) -> "MeasureSpec":
        return MeasureSpec("dirac", points=np.array([float(point)]),
                           weights=np.array([1.0]))

    @staticmethod
    def discrete(points: Sequence[float],
                 weights: Sequence[float]) -> "MeasureSpec":
        p = np.asarray(points, float)
        w = np.asarray(weights, float)
        if p.shape != w.shape or p.ndim != 1:
            raise ParameterError("points/weights must be matching 1-D arrays")
        if np.any(w < 0) or not np.isfinite(w.sum()):
            raise ParameterError("weights must be nonnegative with finite mass")
        return MeasureSpec("discrete", points=p, weights=w)

    @staticmethod
    def from_density(field: GridField) -> "MeasureSpec":
        return MeasureSpec("density", density=field)

    @property
    def mass(self) -> float:
        if self.kind == "density":
            return _trapz(self.density)
        return float(self.weights.sum())


@dataclass(frozen=True)
class ConvexityCertificate:
    kind: str  # "subharmonic" | "convex" | "concave" | "superharmonic"
    beta: float
    margin: float
    tol: float
    interior_only: bool = True

    @property
    def passed(self) -> bool:
        return self.margin >= -self.tol


# ---------------------------------------------------------------------------
# flow


def _fp_family(v0: MeasureSpec, beta: float, t: float) -> LogQuad:
    """v_t as one LogQuad with a component per atom of v0.  A grid density
    is the discrete measure on its nodes with trapezoid weights times its
    values (nodes of zero weight dropped); a tagged one flows its tag."""
    if beta * (1.0 - np.exp(-2.0 * t)) < 1e-10:
        raise ParameterError("flow time too small: kernel variance below 1e-10")
    points, weights = v0.points, v0.weights
    if v0.kind == "density":
        src = v0.density
        if src.ndim != 1:
            raise ParameterError("Fokker-Planck evolution is 1-D only")
        if isinstance(src.tag, LogQuad):
            return src.tag.fp(beta, t)
        if np.any(src.values < 0):
            raise PositivityError("a density must be nonnegative")
        points = src.grid.points
        weights = np.full(points.size, src.grid.spacing)
        weights[[0, -1]] *= 0.5
        weights *= src.values
    with np.errstate(divide="ignore"):
        logw = np.log(weights)
    keep = logw > -np.inf
    if not np.any(keep):
        raise ParameterError("the initial measure has no mass")
    var = beta * (1.0 - np.exp(-2.0 * t))
    q = LogQuad.gaussian(var, np.exp(-t) * points[keep])
    return LogQuad(q.a, q.b, q.c + logw[keep])


def _check_mass(mass0: float, mass_t: float):
    if abs(mass_t - mass0) > 1e-6 * max(abs(mass0), 1.0):
        raise TruncationError(
            f"mass drift {mass_t - mass0:.3e} along the flow; widen the grid")


def fp_evolve(v0, params: FPParams, grid: Optional[Grid1D] = None) -> GridField:
    """One-shot kernel evaluation of the beta-Fokker-Planck flow at time t."""
    if isinstance(v0, GridField):
        v0 = MeasureSpec.from_density(v0)
    beta, t = params.beta, params.t
    if v0.kind == "density" and grid is None:
        grid = v0.density.grid
    if grid is None:
        grid = default_grid()

    if t == 0.0:
        if v0.kind != "density":
            raise ParameterError("t = 0 requires a density initial condition")
        return v0.density
    out = field_from_family(grid, _fp_family(v0, beta, t))
    if v0.kind == "density":
        _check_mass(v0.mass, _trapz(out))
    return out


def fp_class_member(mu: MeasureSpec, beta: float,
                    grid: Optional[Grid1D] = None) -> GridField:
    """Snapshot of the 2 beta-flow at t* = (1/2) log 2: a member of FP(beta)."""
    if beta <= 0:
        raise ParameterError("beta must be positive")
    return fp_evolve(mu, FPParams(2.0 * beta, T_STAR), grid=grid)


# ---------------------------------------------------------------------------
# certificates


def _interior(arr: np.ndarray, trim: int = 2) -> np.ndarray:
    if arr.ndim == 1:
        return arr[trim:-trim]
    return arr[trim:-trim, trim:-trim]


def _log_hessian_1d(v: GridField) -> np.ndarray:
    if isinstance(v.tag, LogQuad):
        return np.asarray(v.tag.d2log(v.grid.points), float)
    if v.analytic_log is not None:
        h = 1e-4
        x = v.grid.points
        return (v.log(x + h) - 2.0 * v.log(x) + v.log(x - h)) / h**2
    _, hess = log_derivatives(v)
    return hess.values


def _log_hessian_2d(v: GridField):
    if v.analytic_log is not None or v.analytic is not None:
        h = 1e-3
        X, Y = np.meshgrid(v.grid.gx.points, v.grid.gy.points, indexing="ij")
        L = v.log(X, Y)
        hxx = (v.log(X + h, Y) - 2 * L + v.log(X - h, Y)) / h**2
        hyy = (v.log(X, Y + h) - 2 * L + v.log(X, Y - h)) / h**2
        hxy = (v.log(X + h, Y + h) - v.log(X + h, Y - h)
               - v.log(X - h, Y + h) + v.log(X - h, Y - h)) / (4 * h**2)
        return hxx, hxy, hyy
    ld = log_derivatives(v)
    return ld.hxx, ld.hxy, ld.hyy


def _margin(kind: str, beta: float, n: int, lap, eigmin, eigmax) -> float:
    """The signed margin of ``kind`` (see certify) from the curvature."""
    if kind == "subharmonic":
        return float(np.min(lap + n / beta))
    if kind == "convex":
        return float(np.min(eigmin + 1.0 / beta))
    if kind == "concave":
        return float(np.min(-1.0 / beta - eigmax))
    if kind == "superharmonic":
        return float(np.min(-n / beta - lap))
    raise ParameterError(f"unknown certificate kind {kind!r}")


def certify(v: GridField, kind: str, beta: float,
            tol: Optional[float] = None) -> ConvexityCertificate:
    """Measure the log-curvature bound defining each semi-log property.

    Margins are signed so that margin >= -tol certifies:
      subharmonic:   min(Lap log v + n/beta)
      convex:        min(eigmin grad^2 log v + 1/beta)
      concave:       min(-1/beta - eigmax grad^2 log v)
      superharmonic: min(-n/beta - Lap log v)

    In 1-D subharmonic/convex coincide, as do concave/superharmonic.
    """
    if beta <= 0:
        raise ParameterError("beta must be positive")
    if v.analytic_log is None and np.any(v.values <= 0):
        raise PositivityError("certification from samples requires v > 0")
    if tol is None:
        tol = 1e-4 / beta

    if v.ndim == 1:
        hess = _interior(_log_hessian_1d(v))
        margin = _margin(kind, beta, 1, hess, hess, hess)
        return ConvexityCertificate(kind, beta, margin, tol)

    hxx, hxy, hyy = (_interior(a) for a in _log_hessian_2d(v))
    lap = hxx + hyy
    disc = np.sqrt((hxx - hyy) ** 2 + 4.0 * hxy**2)
    margin = _margin(kind, beta, 2, lap, 0.5 * (lap - disc), 0.5 * (lap + disc))
    return ConvexityCertificate(kind, beta, margin, tol)


def certify_matrix(v: GridField, B: np.ndarray, side: str,
                   tol: float = 1e-4) -> ConvexityCertificate:
    """2-D certificate grad^2 log v >= -B^{-1} (side='convex') or <= -B^{-1}.

    Margin is the worst eigenvalue of grad^2 log v + B^{-1} (resp. its
    negation) over interior points.
    """
    if v.ndim != 2:
        raise ParameterError("matrix certificates are 2-D")
    Binv = np.linalg.inv(np.asarray(B, float))
    hxx, hxy, hyy = (_interior(a) for a in _log_hessian_2d(v))
    axx = hxx + Binv[0, 0]
    axy = hxy + Binv[0, 1]
    ayy = hyy + Binv[1, 1]
    tr = axx + ayy
    disc = np.sqrt((axx - ayy) ** 2 + 4.0 * axy**2)
    if side == "convex":
        margin = float(np.min(0.5 * (tr - disc)))
    elif side == "concave":
        margin = float(np.min(-0.5 * (tr + disc)))
    else:
        raise ParameterError("side must be 'convex' or 'concave'")
    return ConvexityCertificate(side, float(np.max(np.linalg.eigvalsh(B))),
                                margin, tol)


def preservation_trace(v0: GridField, beta: float, kind: str,
                       times: Iterable[float]):
    """Certificate margins of v_t along the flow, plus the universal bound.

    Returns (margins, universal_margins): the universal bound is
    grad^2 log v_t >= -1/((1 - e^{-2t}) beta), valid for arbitrary initial
    measures.
    """
    source = MeasureSpec.from_density(v0)
    mass0 = source.mass
    x = v0.grid.points
    margins = []
    universal = []
    for t in times:
        t = FPParams(beta, float(t)).t
        if t == 0.0:
            margins.append(certify(v0, kind, beta).margin)
            universal.append(np.nan)
            continue
        # one pass over the grid gives the mass and both margins
        logv, _, hess = _fp_family(source, beta, t)._pass(x, 2)
        _check_mass(mass0, float(np.trapezoid(np.exp(logv),
                                              dx=v0.grid.spacing)))
        hess = _interior(hess)
        margins.append(_margin(kind, beta, 1, hess, hess, hess))
        bound = 1.0 / ((1.0 - np.exp(-2.0 * t)) * beta)
        universal.append(float(np.min(hess + bound)))
    return np.asarray(margins), np.asarray(universal)


# ---------------------------------------------------------------------------
# moments


def covariance(v: GridField) -> np.ndarray:
    """Covariance matrix of a probability density (n x n)."""
    if isinstance(v.tag, LogQuad):
        mass, _, var = v.tag.moments()
        cov = np.array([[var]])
    else:
        mass = _trapz(v)
        xs = ([v.grid.points] if v.ndim == 1 else
              np.meshgrid(v.grid.gx.points, v.grid.gy.points, indexing="ij"))

        def integ(g):
            return _trapz(GridField(v.grid, g * v.values))

        means = [integ(x) for x in xs]
        cov = np.array([[integ(xi * xj) - mi * mj
                         for xj, mj in zip(xs, means)]
                        for xi, mi in zip(xs, means)])
    if abs(mass - 1.0) > 1e-6:
        raise ParameterError(f"density not normalized: mass = {mass}")
    return cov
