"""
Grids, quadrature rules, and finite-difference operators.

Everything downstream works with functions sampled on uniform grids.  A
GridField couples the samples with an optional analytic closure so that
kernel integrals (Ornstein-Uhlenbeck, Fokker-Planck, Hopf-Lax) can be
evaluated exactly where a closed form is known and by interpolation
otherwise.

Conventions:

    gamma_b(x) = (2 pi b)^(-n/2) exp(-|x|^2 / (2 b)),   gamma := gamma_1.

Gauss-Hermite rules are normalized against the standard Gaussian: weights
sum to 1 and ``sum(w * f(z))`` approximates ``int f dgamma``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.hermite_e import hermegauss


class ParameterError(ValueError):
    """A parameter is outside its admissible range."""


class EvaluationError(ValueError):
    """An integrand produced a non-finite value."""


class PositivityError(ValueError):
    """An operation requiring strict positivity received a non-positive value."""


class TruncationError(ValueError):
    """Estimated tail mass outside the grid exceeds tolerance."""


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class Grid1D:
    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ParameterError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.n < 9:
            raise ParameterError(f"need n >= 9, got {self.n}")

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)


def default_grid() -> Grid1D:
    """Desk-scale 1-D grid: 12 standard deviations, ~0.006 spacing."""
    return Grid1D(-12.0, 12.0, 4097)


# ---------------------------------------------------------------------------
# fields


def _sample(grid: Grid1D, fn: Callable) -> np.ndarray:
    """fn at every grid point."""
    return np.asarray(fn(grid.points), float)


@dataclass(frozen=True)
class GridField:
    """Function samples on a grid, with optional exact evaluators.

    values        -- samples at the grid points; when omitted they are
                     filled by evaluating ``analytic`` once
    analytic      -- vectorized evaluator f(x); when both are given, they
                     must agree on the grid
    analytic_log  -- evaluator of log f, preferred wherever powers/ratios
                     of densities are formed (overflow-safe)
    analytic_dlog -- evaluator of (log f)' (used for Fisher information
                     and certificates)
    tag           -- closed-form family (a families.LogQuad of K >= 1
                     components) enabling exact semigroup/flow fast paths
    """

    grid: Grid1D
    values: Optional[np.ndarray] = None
    analytic: Optional[Callable] = None
    analytic_log: Optional[Callable] = None
    analytic_dlog: Optional[Callable] = None
    tag: object = None

    def __post_init__(self):
        given = self.values is not None
        if not given and self.analytic is None:
            raise ParameterError("a field needs values or an analytic closure")
        v = (np.asarray(self.values, dtype=float) if given
             else _sample(self.grid, self.analytic))
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.n,):
            raise ParameterError("values shape does not match grid")
        if not np.all(np.isfinite(v)):
            raise EvaluationError("field values must be finite")
        if given and self.analytic is not None:
            self._check_agreement()

    def _check_agreement(self):
        sampled = _sample(self.grid, self.analytic)
        scale = np.max(np.abs(self.values)) + 1e-300
        if np.max(np.abs(sampled - self.values)) > 1e-12 * max(scale, 1.0):
            raise EvaluationError("analytic closure disagrees with samples")

    # -- evaluation -------------------------------------------------------

    def __call__(self, x):
        if self.analytic is not None:
            return np.asarray(self.analytic(x), float)
        return np.interp(np.asarray(x, float), self.grid.points, self.values,
                         left=0.0, right=0.0)

    def log(self, x):
        """Evaluate log f, using the exact log closure when available."""
        if self.analytic_log is not None:
            return np.asarray(self.analytic_log(x), float)
        with np.errstate(divide="ignore"):
            return np.log(np.maximum(self(x), 1e-300))

    def dlog(self, x, h: float = 1e-5):
        if self.analytic_dlog is not None:
            return np.asarray(self.analytic_dlog(x), float)
        return (self.log(np.asarray(x, float) + h)
                - self.log(np.asarray(x, float) - h)) / (2.0 * h)

    @classmethod
    def from_callable(cls, grid: Grid1D, fn: Callable, *, log_fn=None,
                      dlog_fn=None, tag=None) -> "GridField":
        return cls(grid, analytic=fn, analytic_log=log_fn,
                   analytic_dlog=dlog_fn, tag=tag)


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class QuadratureRule:
    kind: str  # "gauss-hermite" | "trapezoid"
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if np.any(np.asarray(self.weights) <= 0):
            raise ParameterError("quadrature weights must be positive")

    @property
    def log_weights(self) -> np.ndarray:
        return np.log(self.weights)


# one rule per node count, built on first use; its arrays are read-only
_GH_RULES: dict = {}


def gauss_hermite_rule(m: int) -> QuadratureRule:
    """Gauss-Hermite rule normalized for the standard Gaussian measure.

    ``int f dgamma ~= sum(w * f(z))``; exact for polynomials of degree
    <= 2m - 1.  Repeated calls return the same rule.
    """
    if not (2 <= m <= 512):
        raise ParameterError(f"node count must be in [2, 512], got {m}")
    rule = _GH_RULES.get(m)
    if rule is None:
        z, w = hermegauss(m)  # probabilists' weight exp(-x^2/2)
        w = w / np.sqrt(2.0 * np.pi)
        w /= w.sum()
        for arr in (z, w):
            arr.setflags(write=False)
        rule = _GH_RULES[m] = QuadratureRule("gauss-hermite", z, w)
    return rule


DEFAULT_GH_NODES = 96


# ---------------------------------------------------------------------------
# nested strided levels


def _coarsest_stride(*intervals: int) -> int:
    """The first of the nested levels: the largest power-of-two stride that
    divides every interval count and leaves at least 64 intervals on each."""
    m, k = int(np.gcd.reduce(intervals)), 1
    while m % (2 * k) == 0 and min(intervals) >= 128 * k:
        k *= 2
    return k


def _refine_strides(level: Callable, k: int, gap: Callable, tol: float):
    """Halve the stride from k until two successive levels agree.

    ``level(k)`` evaluates at stride k and ``gap(coarse, fine)`` measures
    how far two levels disagree.  Returns (k, level(k), gap) at the first
    level within ``tol`` of the one before it; an unresolved level sequence
    ends at stride 1.  The gap is NaN when only one level was evaluated.
    """
    cur, g = level(k), np.nan
    while k > 1 and not g <= tol:
        k //= 2
        prev = cur  # one earlier level is held while the next is evaluated
        cur = level(k)
        g = gap(prev, cur)
    return k, cur, g


# ---------------------------------------------------------------------------
# finite differences of log f


def _second_difference(L: np.ndarray, h: float) -> np.ndarray:
    out = np.empty_like(L)
    out[1:-1] = (L[2:] - 2.0 * L[1:-1] + L[:-2]) / h**2
    # second-order one-sided stencils at the boundary
    out[0] = (2 * L[0] - 5 * L[1] + 4 * L[2] - L[3]) / h**2
    out[-1] = (2 * L[-1] - 5 * L[-2] + 4 * L[-3] - L[-4]) / h**2
    return out


def log_derivatives(f: GridField):
    """Central finite differences of log f (one-sided at the boundary),
    returned as the GridFields ``(grad, hess)``."""
    if np.any(f.values <= 0):
        raise PositivityError("log_derivatives requires strictly positive f")
    h = f.grid.spacing
    L = np.log(f.values)
    grad = np.gradient(L, h, edge_order=2)
    hess = _second_difference(L, h)
    return (GridField(f.grid, grad), GridField(f.grid, hess))
