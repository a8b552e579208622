"""
Grids, quadrature rules, the one second-difference stencil and the
interior-peak proxy.

Everything downstream works with functions sampled on uniform grids.  A
GridField is either data known only at its nodes, interpolated between
them, or an exact function (f or log f, with (log f)' and (log f)'' when
known) evaluated once at its nodes, so that kernel integrals
(Ornstein-Uhlenbeck, Fokker-Planck, Hopf-Lax) read a closed form where one
is known.  A field keeps log f and (log f)'' at its nodes, filled by the
pass that made its values or on first use, and every reader at the nodes
reads those arrays instead of calling a closure again; data known only at
the nodes take their second derivative from ``second_difference``.

Conventions:

    gamma_b(x) = (2 pi b)^(-n/2) exp(-|x|^2 / (2 b)),   gamma := gamma_1.

Gauss-Hermite rules are normalized against the standard Gaussian: weights
sum to 1 and ``sum(w * f(z))`` approximates ``int f dgamma``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
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
        """The n nodes, built once per grid and read-only."""
        return _grid_points(self.lo, self.hi, self.n)


@lru_cache(maxsize=16)
def _grid_points(lo: float, hi: float, n: int) -> np.ndarray:
    x = np.linspace(lo, hi, n)
    x.setflags(write=False)
    return x


def default_grid() -> Grid1D:
    """Desk-scale 1-D grid: 12 standard deviations, ~0.006 spacing."""
    return Grid1D(-12.0, 12.0, 4097)


# ---------------------------------------------------------------------------
# fields


@dataclass(frozen=True)
class GridField:
    """Function samples on a grid, built one of two ways:

    ``GridField(grid, values)``     -- data known only at the nodes: read
        between them by linear interpolation (0 outside the grid), and
        differenced by ``second_difference`` for (log f)'';
    ``GridField.from_callable(...)`` -- an exact function, evaluated once at
        the nodes, whose closures every reader off the nodes calls.

    analytic       -- evaluator f(x), the only closure that may give signed
                      data; left out, f is the exp of ``analytic_log``
    analytic_log   -- evaluator of log f, preferred wherever powers/ratios
                      of densities are formed (overflow-safe)
    analytic_dlog  -- evaluator of (log f)' (Fisher information, int |f'|^2)
    analytic_d2log -- evaluator of (log f)'' (curvature certificates)
    tag            -- closed-form family (a families.LogQuad of K >= 1
                      components) enabling exact semigroup/flow fast paths
    nodes          -- [log f at every node, (log f)'' at the nodes 2..n-3],
                      read-only: from the pass that made the values, else
                      filled on first use (see grid_log, grid_d2log)
    """

    grid: Grid1D
    values: Optional[np.ndarray] = None
    analytic: Optional[Callable] = None
    analytic_log: Optional[Callable] = None
    analytic_dlog: Optional[Callable] = None
    analytic_d2log: Optional[Callable] = None
    tag: object = None
    nodes: Optional[list] = field(default=None, repr=False)

    def __post_init__(self):
        exact = self.analytic is not None or self.analytic_log is not None
        if exact == (self.values is not None):
            raise ParameterError("a field needs grid values or an exact "
                                 "closure, and not both")
        object.__setattr__(self, "nodes", list(self.nodes or (None, None)))
        for i, arr in enumerate(self.nodes):
            if arr is not None:
                self._keep(i, arr)
        if exact and self.nodes[0] is None and self.analytic is None:
            # the one evaluation at the nodes; its exp are the values
            self._keep(0, self.analytic_log(self.grid.points))
        if not exact:
            v = np.asarray(self.values, dtype=float)
        elif self.nodes[0] is not None:
            v = np.exp(self.nodes[0])
        else:
            v = np.asarray(self.analytic(self.grid.points), float)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.n,):
            raise ParameterError("values shape does not match grid")
        if not np.all(np.isfinite(v)):
            raise EvaluationError("field values must be finite")

    @classmethod
    def from_callable(cls, grid: Grid1D, fn: Callable = None, *,
                      log_fn=None, dlog_fn=None, d2log_fn=None, tag=None,
                      nodes=None) -> "GridField":
        """The exact function fn, or exp(log_fn) when fn is left out, with
        its (log f)' and (log f)'' closures when given.  ``nodes``, when
        given, is (log f at the nodes, (log f)'' at the nodes 2..n-3) as the
        caller already computed them, either entry None if not."""
        return cls(grid, None, fn, log_fn, dlog_fn, d2log_fn, tag, nodes)

    def _keep(self, i: int, arr):
        """Hold a node array, read-only, as nodes[i]."""
        arr = np.asarray(arr, float)
        arr.setflags(write=False)
        self.nodes[i] = arr

    # -- the node arrays --------------------------------------------------

    def grid_log(self) -> np.ndarray:
        """log f at every node: nodes[0], else log evaluated at the nodes
        once and kept."""
        if self.nodes[0] is None:
            self._keep(0, self.log(self.grid.points))
        return self.nodes[0]

    def grid_d2log(self) -> np.ndarray:
        """(log f)'' at the nodes 2..n-3, the window every certificate
        reads: nodes[1], else the analytic_d2log closure there, else
        second_difference of grid_log at the grid spacing; kept."""
        if self.nodes[1] is None:
            if self.analytic_d2log is not None:
                d2 = self.analytic_d2log(self.grid.points[2:-2])
            else:
                d2 = second_difference(self.grid_log(), self.grid.spacing)
            self._keep(1, d2)
        return self.nodes[1]

    @property
    def grid_mass(self) -> float:
        """Trapezoid integral of the values over the grid, without a tail
        check."""
        return float(np.trapezoid(self.values, dx=self.grid.spacing))

    # -- evaluation -------------------------------------------------------

    def __call__(self, x):
        if self.analytic is not None:
            return np.asarray(self.analytic(x), float)
        if self.analytic_log is not None:
            return np.exp(np.asarray(self.analytic_log(x), float))
        return np.interp(np.asarray(x, float), self.grid.points, self.values,
                         left=0.0, right=0.0)

    def log(self, x):
        """Evaluate log f, using the exact log closure when available."""
        if self.analytic_log is not None:
            return np.asarray(self.analytic_log(x), float)
        with np.errstate(divide="ignore"):
            return np.log(np.maximum(self(x), 1e-300))

    def dlog(self, x):
        """Evaluate (log f)' by the exact closure, which a field must carry
        to be asked for it."""
        if self.analytic_dlog is None:
            raise ParameterError("the field carries no exact (log f)'")
        return np.asarray(self.analytic_dlog(x), float)


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights)
        if not np.all(np.isfinite(w) & (w > 0)):
            raise ParameterError("quadrature weights must be finite and "
                                 "positive")

    @property
    def log_weights(self) -> np.ndarray:
        return np.log(self.weights)


# one rule per node count, built on first use; its arrays are read-only
_GH_RULES: dict = {}


def gauss_hermite_rule(m: int) -> QuadratureRule:
    """Gauss-Hermite rule normalized for the standard Gaussian measure.

    ``int f dgamma ~= sum(w * f(z))``; exact for polynomials of degree
    <= 2m - 1.  Repeated calls return the same rule.  From m = 371 on
    (numpy 2.4) hermegauss's weights underflow to 0 or come out NaN, and
    the rule is refused with a ParameterError.
    """
    if not (2 <= m <= 512):
        raise ParameterError(f"node count must be in [2, 512], got {m}")
    rule = _GH_RULES.get(m)
    if rule is None:
        with np.errstate(all="ignore"):
            z, w = hermegauss(m)  # probabilists' weight exp(-x^2/2)
            w = w / np.sqrt(2.0 * np.pi)
            w /= w.sum()
        for arr in (z, w):
            arr.setflags(write=False)
        rule = _GH_RULES[m] = QuadratureRule(z, w)
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


# ---------------------------------------------------------------------------
# the second-difference stencil


def second_difference(u: np.ndarray, h: float) -> np.ndarray:
    """(u[i+1] - 2 u[i] + u[i-1]) / h^2 at the nodes i = 2..n-3 of the
    samples u at spacing h: the one stencil for data known only on a grid.

    Its error is h^2 u''''/12 plus a rounding error of about 4 eps |u| / h^2.
    The two nodes at each end, which no certificate reads, are left out.
    """
    return (u[3:-1] - 2.0 * u[2:-2] + u[1:-3]) / h**2


def interior_peak(u: np.ndarray) -> bool:
    """Whether the largest of the samples u lies at the nodes 2..n-3.

    The checkable proxy for an integral of e^u over the line: an integrand
    still climbing at the grid's edge gives it no reason to converge.
    """
    k = int(np.argmax(u))
    return 2 <= k <= np.size(u) - 3


# ---------------------------------------------------------------------------
# log-sum-exp, cumulative Simpson and the normal CDF


def logsumexp(a, axis=None):
    """log(sum(exp(a))) over all entries (axis None) or the last axis (-1).

    The maximum is taken out and its m tied entries kept apart from the sum
    s of the others: log1p(s / m) + log(m) + max (Blanchard, Higham &
    Higham, IMA J. Numer. Anal. 41, 2021).  Where that is not finite (all
    -inf, +inf or NaN entries) the direct log(sum(exp(a))) is returned.
    Bit for bit what scipy.special.logsumexp (1.17) gives for real input.
    """
    if axis not in (None, -1):
        raise ParameterError("logsumexp sums over all entries or axis -1")
    a = np.atleast_1d(np.asarray(a, float))
    axes = tuple(range(a.ndim)) if axis is None else axis
    top = np.max(a, axis=axes, keepdims=True)
    at_top = a == top
    m = np.count_nonzero(at_top, axis=axes, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        e = a - top
        e[at_top] = -np.inf
        s = np.sum(np.exp(e, out=e), axis=axes, keepdims=True)
        out = np.log1p(s / m) + np.log(m) + top
        bad = ~np.isfinite(out)
        if bad.any():
            if axis is None:
                out = np.log(np.sum(np.exp(a), axis=axes, keepdims=True))
            else:
                out[bad] = np.log(np.sum(np.exp(a[bad[..., 0]]), axis=-1))
    out = np.squeeze(out, axis=axes)
    return out[()] if out.ndim == 0 else out


def cumulative_simpson(y, dx: float, initial: float):
    """Cumulative Simpson integral of samples y at spacing dx, starting at
    ``initial``: one value per sample.

    Each interval gets d/3 (5 f0/4 + 2 f1 - f2/4) from the three samples
    that start at it, or from the three that end at it: alternately, and
    for the last interval; then the intervals are summed.  Bit for bit what
    scipy.integrate.cumulative_simpson(y, dx=dx, initial=initial) gives for
    1-D y.
    """
    y = np.asarray(y, float)
    if y.ndim != 1 or y.size < 3:
        raise ParameterError("cumulative_simpson needs 1-D y with >= 3 samples")

    def forward(f):
        return dx / 3 * (5 * f[:-2] / 4 + 2 * f[1:-1] - f[2:] / 4)

    ahead, behind = forward(y), forward(y[::-1])[::-1]
    parts = np.empty(y.size - 1)
    parts[:-1:2] = ahead[::2]
    parts[1::2] = behind[::2]
    parts[-1] = behind[-1]
    return np.concatenate(([initial], np.cumsum(parts) + initial))


# Cody's rational approximations as cephes' ndtr.c holds them: erf(x) =
# x T(x^2) / U(x^2) for |x| < 1, erfc(x) = e^{-x^2} P(x) / Q(x) on [1, 8)
# and e^{-x^2} R(x) / S(x) from 8 on.  U, Q and S are monic; their leading
# 1 is not listed.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821794e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2  # log of the largest double
_SQRT1_2 = float(np.sqrt(0.5))


def _pair(num, den):
    """Horner plan for num(v) / den(v), den monic, in cephes' polevl /
    p1evl order: den's steps before num starts, num's first coefficient,
    and the (2, 1) coefficient columns of the steps both then take."""
    lead = len(den) - (len(num) - 1)
    cols = [np.array([[p], [q]]) for p, q in zip(num[1:], den[lead:])]
    return den[:lead], num[0], cols


_ERF_TU = _pair(_ERF_T, _ERF_U)
_ERFC_PQ = _pair(_ERFC_P, _ERFC_Q)
_ERFC_RS = _pair(_ERFC_R, _ERFC_S)


def _rational(v, pair, acc):
    """acc[0] = num(v) and acc[1] = den(v) for a pair from _pair."""
    lead, first, cols = pair
    acc[1].fill(1.0)
    for c in lead:
        acc[1] *= v
        acc[1] += c
    acc[0].fill(first)
    for c in cols:
        acc *= v
        acc += c


def ndtr(a, out=None):
    """The standard normal CDF at a, by cephes' ndtr (W. J. Cody, Math.
    Comp. 23, 1969).

    With x = a / sqrt 2 and z = |x|: 1/2 + erf(x) / 2 where z < 1, else
    y = erfc(z) / 2, or 1 - y where x > 0; y is 0 once z^2 > MAXLOG.  Each
    branch gathers its points, so no point runs another branch's
    polynomials.  ``out`` (C-contiguous; a itself is allowed) receives the
    result, and is allocated when not given.
    Within 4.4e-16 of scipy.special.ndtr relative on [-40, 40], and
    bit-identical at 98 % of points there.
    """
    a = np.asarray(a, float)
    if out is None:
        out = a.copy()
    elif out is not a:
        np.copyto(out, a)
    if not out.flags.c_contiguous:
        raise ParameterError("ndtr writes into a C-contiguous out")
    flat = out.reshape(-1)
    w = np.empty((2, flat.size))  # the two Horner accumulators
    z = np.multiply(np.abs(flat, out=w[0]), _SQRT1_2, out=w[0])
    small, big = z < 1.0, z >= 8.0
    mid = ~(small | big)  # and NaN
    # overflow and inf / inf only arise at points whose result is 0 or 1
    with np.errstate(over="ignore", invalid="ignore"):
        for mask, branch, pair in ((small, _erf_half, _ERF_TU),
                                   (mid, _erfc_half, _ERFC_PQ),
                                   (big, _erfc_half, _ERFC_RS)):
            m = int(np.count_nonzero(mask))
            if m:
                flat[mask] = branch(flat, mask, pair, w[:, :m])
    return out


def _gather(flat, mask):
    """x = a / sqrt 2 at the points of one branch."""
    x = flat[mask]
    x *= _SQRT1_2
    return x


def _erf_half(flat, mask, pair, acc):
    """1/2 + erf(x) / 2 with erf(x) = x T(x^2) / U(x^2)."""
    x = _gather(flat, mask)
    _rational(np.multiply(x, x, out=x), pair, acc)
    x = _gather(flat, mask)
    y = np.divide(np.multiply(x, acc[0], out=acc[0]), acc[1], out=acc[0])
    y *= 0.5
    y += 0.5
    return y


def _erfc_half(flat, mask, pair, acc):
    """y = erfc(z) / 2 = e^{-z^2} num(z) / den(z) / 2, and 1 - y where
    x > 0."""
    z = _gather(flat, mask)
    positive = z > 0.0
    _rational(np.abs(z, out=z), pair, acc)
    e = np.negative(np.multiply(z, z, out=z), out=z)
    # e^{-z^2} underflows past MAXLOG, and numpy's exp is slow on subnormal
    # results: take e^0 there and zero the result afterwards
    under = e < -_MAXLOG
    np.copyto(e, 0.0, where=under)
    np.exp(e, out=e)
    y = np.divide(np.multiply(e, acc[0], out=acc[0]), acc[1], out=acc[0])
    np.copyto(y, 0.0, where=under)
    y *= 0.5
    np.subtract(1.0, y, out=y, where=positive)
    return y
