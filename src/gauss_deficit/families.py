"""
Closed-form families: sums of log-quadratic functions.

A LogQuad is f(x) = sum_k exp(a_k x^2/2 + b_k x + c_k) with K >= 1
components held as arrays.  K = 1 is a single log-quadratic; K > 1 is a
positive Gaussian mixture, such as every Fokker-Planck snapshot of a finite
measure.  The family is closed under products, the Ornstein-Uhlenbeck
semigroup and the Fokker-Planck kernel (complete-the-square identities,
applied per component), which makes it the workhorse for extremiser checks.
Fields built from these carry exact evaluators for log f, (log f)' and
(log f)'', the last from the component posterior in the same pass, and are
evaluated once on their grid: that one pass gives the values and the node
arrays of log f and (log f)''.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .numerics import Grid1D, GridField, ParameterError, ndtr

# (point, component) pairs per block of the evaluation pass: cache-sized
_CHUNK = 1 << 16
# families of more components are evaluated on windows of them
_NARROW = 64


def _by_blocks(x, step: int, rows: int, fn, scratch: int, width: int,
               sink=None):
    """``rows`` values per point of x from fn(xs, work), called in order on
    (n, 1) blocks xs of ``step`` points.  ``work`` (``scratch`` rows of
    step * width doubles) is allocated once: fresh block-sized temporaries
    cost page faults.  Each output row is its own array, keeping no other.
    ``sink(block, parts)``, when given, takes each block's rows in place of
    the output arrays (``block`` slices the flattened x), and None is
    returned."""
    x = np.asarray(x, float)
    flat = x.ravel()
    out = [] if sink else [np.empty(flat.size) for _ in range(rows)]
    work = np.empty((scratch, min(step, flat.size) * width))
    for i in range(0, flat.size, step):
        xs = flat[i:i + step, None]
        parts = fn(xs, work[:, :xs.shape[0] * width])
        if sink:
            sink(slice(i, i + step), parts)
        else:
            for o, part in zip(out, parts):
                o[i:i + step] = part
    return None if sink else [o.reshape(x.shape)[()] for o in out]


def _row_max(L):
    """L.max(axis=1), bit for bit; column by column when rows outnumber
    columns 16 to 1, where numpy's row-wise reduction is slower (at (4097,
    8): 265 us against 26 us)."""
    if 16 * L.shape[1] > L.shape[0]:
        return L.max(axis=1)
    top = L[:, 0].copy()
    for col in L.T[1:]:
        np.maximum(top, col, out=top)
    return top


@dataclass(frozen=True, eq=False)
class LogQuad:
    """f(x) = sum_k exp(a_k x^2 / 2 + b_k x + c_k) over K >= 1 components.

    ``a``, ``b``, ``c`` are 1-D arrays of length K (scalars give K = 1);
    mixture weights w_k are folded into c_k as log w_k.  ``_about(s)``, when
    given, returns the components' (a, b, c) in the coordinate u = x - s,
    computed from their exact centres; evaluation then takes each block of
    points about its mid-point.  Held about 0, b and c carry rounding that
    grows like |x| |b| far from the origin, which moves (log f)'' by about
    1e-12 at |x| = 12 for components of variance 0.05.  The algebra below
    returns families without it.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray = 0.0
    _about: Optional[Callable] = field(default=None, repr=False)

    def __post_init__(self):
        arrs = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, float))
                                     for v in (self.a, self.b, self.c)))
        if arrs[0].ndim != 1 or arrs[0].size == 0:
            raise ParameterError("a, b, c must be scalars or 1-D arrays")
        for name, v in zip("abc", arrs):
            object.__setattr__(self, name, v.copy())

    # -- construction -----------------------------------------------------

    @staticmethod
    def gaussian(beta: float, mean=0.0) -> "LogQuad":
        """The density gamma_beta(x - mean); one component per mean."""
        if beta <= 0:
            raise ParameterError("beta must be positive")
        return LogQuad(-1.0 / beta, mean / beta,
                       -mean**2 / (2.0 * beta) - 0.5 * np.log(2 * np.pi * beta))

    @staticmethod
    def gaussian_ratio(beta: float) -> "LogQuad":
        """gamma_beta / gamma; its powers are ``** power``."""
        return LogQuad.gaussian(beta) * LogQuad.gaussian(1.0) ** -1.0

    # -- pointwise --------------------------------------------------------

    def _pass(self, x, order: int = 2, sink=None):
        """[log f, (log f)', (log f)''][:order + 1] at x, in one pass.

        Under the component posterior p_k = exp(L_k) / f, with L_k the k-th
        exponent, (log f)' = E_p[a x + b] and (log f)'' = E_p[a] +
        Var_p(a x + b), the variance taken about the posterior mean so that
        no digits cancel; blocks of points sum windows of components (see
        _windows).  K = 1 returns the quadratic directly, its (log f)'' = a
        as a read-only broadcast that holds no array.  ``sink``, when given,
        takes the rows block by block (see _by_blocks) and None is returned.
        """
        x = np.asarray(x, float)
        if self.a.size == 1:
            a, b, c = self.a[0], self.b[0], self.c[0]
            rows = [0.5 * a * x * x + b * x + c, a * x + b,
                    np.broadcast_to(a, x.shape)][:order + 1]
            if sink is None:
                return rows
            sink(slice(None), [r.ravel() for r in rows])
            return None

        def tables(a, b, c):
            # L = [x^2, x, 1] @ quad; posterior sums are p @ cols
            return (np.stack([0.5 * a, b, c]),
                    np.stack([np.ones_like(a), a, b], axis=1))

        fixed = tables(self.a, self.b, self.c) if self._about is None else None
        step, spans = self._windows(x.ravel())
        width = max((hi - lo for lo, hi in spans), default=1)
        spans = iter(spans)

        def block(xs, work):
            lo, hi = next(spans)
            if fixed is None:
                s = 0.5 * (xs.min() + xs.max())
                xs = xs - s
                quad, cols = tables(*self._about(s))
            else:
                quad, cols = fixed
            quad, cols = quad[:, lo:hi], cols[lo:hi]
            work = [w[:xs.size * (hi - lo)].reshape(xs.size, -1) for w in work]
            powers = np.hstack([xs * xs, xs, np.ones_like(xs)])
            L = np.matmul(powers, quad, out=work[0])
            top = _row_max(L)
            L -= top[:, None]
            # terms below e^-600 cannot move a sum >= 1; the floor keeps exp
            # off subnormal results, which are slow
            p = np.exp(np.maximum(L, -600.0, out=L), out=L)
            s0, sa, sb = (p @ cols).T
            mean_d = (sa * xs[:, 0] + sb) / s0
            out = [top + np.log(s0), mean_d]
            if order > 1:
                d = np.matmul(powers[:, 1:], cols[:, 1:].T, out=work[1])
                d -= mean_d[:, None]
                d *= d
                out.append((sa + np.einsum("ij,ij->i", p, d)) / s0)
            return out[:order + 1]

        return _by_blocks(x, step, order + 1, block,
                          scratch=2 if order > 1 else 1, width=width,
                          sink=sink)

    def _windows(self, flat):
        """(step, spans): a pass sums components spans[i] = [lo, hi) on its
        i-th block of ``step`` points of flat.  A family of more than
        _NARROW components with one a, sorted by b (FP atoms by centre),
        drops those whose exponent lies over 53 log 2 + log K below the
        largest at both block ends.  Exponents differ by linear functions of
        x, so one past the window's right (left) end stays that far below
        the largest at the right (left) end on the whole block: the dropped
        terms sum to under 2^-53 of the posterior sum."""
        K = self.a.size
        step = max(1, _CHUNK // K)
        if (K <= _NARROW or not flat.size or np.any(self.a != self.a[0])
                or np.any(self.b[1:] < self.b[:-1])):
            return step, [(0, K)] * -(-flat.size // step)
        starts = np.arange(0, flat.size, step)
        ends = np.stack([np.minimum.reduceat(flat, starts),
                         np.maximum.reduceat(flat, starts)])[..., None]
        L = ends * self.b
        L += self.c
        L += 0.5 * self.a[0] * ends * ends
        near = np.any(L >= L.max(axis=2, keepdims=True)
                      - np.log(2.0**53 * K), axis=0)
        return step, list(zip(near.argmax(axis=1).tolist(),
                              (K - near[:, ::-1].argmax(axis=1)).tolist()))

    def window_share(self, x):
        """(share of the (point, component) pairs that a pass at x
        evaluates, bound on its dropped terms relative to the posterior
        sum)."""
        flat = np.asarray(x, float).ravel()
        step, spans = self._windows(flat)
        kept = np.diff(spans).ravel() / self.a.size
        rows = np.minimum(step, flat.size - step * np.arange(kept.size))
        return rows @ kept / flat.size, (1.0 - min(kept, default=1.0)) / 2**53

    def log_at(self, x):
        return self._pass(x, 0)[0]

    def __call__(self, x):
        return np.exp(self.log_at(x))

    def dlog(self, x):
        return self._pass(x, 1)[1]

    def d2log(self, x):
        return self._pass(x, 2)[2]

    # -- algebra ----------------------------------------------------------

    def __mul__(self, other: "LogQuad") -> "LogQuad":
        return LogQuad(np.add.outer(self.a, other.a).ravel(),
                       np.add.outer(self.b, other.b).ravel(),
                       np.add.outer(self.c, other.c).ravel())

    def __pow__(self, r: float) -> "LogQuad":
        if self.a.size != 1:
            raise ParameterError("a power needs a single component")
        return LogQuad(self.a * r, self.b * r, self.c * r)

    # -- integrals --------------------------------------------------------

    def _masses(self) -> np.ndarray:
        """Lebesgue integral of each component."""
        if np.any(self.a >= 0):
            raise ParameterError("not Lebesgue integrable (a >= 0)")
        return (np.exp(self.c - self.b**2 / (2 * self.a))
                * np.sqrt(2 * np.pi / (-self.a)))

    def integral_lebesgue(self) -> float:
        return float(np.sum(self._masses()))

    def log_lp_norm_gauss(self, r: float) -> float:
        """log ||f||_{L^r(gamma)} = (1/r) log int f^r dgamma: a power needs
        one component, and r = 1 sums any number of them."""
        fr = self if r == 1 else self ** r
        d = 1.0 - fr.a
        if np.any(d <= 0):
            raise ParameterError("f^r not integrable against gamma")
        # logaddexp takes a tenth of numerics.logsumexp's time on few terms
        terms = fr.c + fr.b**2 / (2 * d) - 0.5 * np.log(d)
        return float(np.logaddexp.reduce(terms) / r)

    # -- kernels ----------------------------------------------------------

    def ou(self, s: float) -> "LogQuad":
        """P_s f for s >= 0, requiring a (1 - e^{-2s}) < 1."""
        if s < 0:
            raise ParameterError("s must be nonnegative")
        e = np.exp(-s)
        sig2 = 1.0 - e * e
        d = 1.0 - self.a * sig2
        if np.any(d <= 0):
            raise ParameterError("OU integral diverges for this log-quadratic")
        return LogQuad(self.a * e * e / d, self.b * e / d,
                       self.c + sig2 * self.b**2 / (2 * d) - 0.5 * np.log(d))

    def fp(self, beta: float, t: float) -> "LogQuad":
        """Evolution of f as a density under the beta-Fokker-Planck kernel."""
        if t <= 0:
            raise ParameterError("fp requires t > 0")
        w = beta * (1.0 - np.exp(-2.0 * t))
        et = np.exp(-t)
        eden = et * et - self.a * w  # = w * E in the complete-the-square
        if np.any(eden <= 0):
            raise ParameterError("FP integral diverges for this log-quadratic")
        E = eden / w
        return LogQuad(self.a / eden, self.b * et / eden,
                       self.c + self.b**2 / (2 * E) - 0.5 * np.log(w * E))

    # -- distribution functions ------------------------------------------

    def mass_and_cdf(self):
        """(total mass, normalized CDF callable); requires every a_k < 0.
        ndtr takes a row per component, so that its branches run on sorted
        stretches, and at most _CHUNK / 4 (point, component) pairs a call:
        it holds four doubles a pair, a quantile map's peak memory."""
        masses = self._masses()
        mass = float(np.sum(masses))
        weights = masses / mass
        sigma = np.sqrt(-1.0 / self.a)[:, None]
        mean = (-self.b / self.a)[:, None]

        def cdf(x):
            x = np.asarray(x, float)
            out = []
            for xs in np.array_split(x.ravel(),
                                     1 + x.size * mean.size // (_CHUNK >> 2)):
                a = xs - mean
                out.append(weights @ ndtr(np.divide(a, sigma, out=a), out=a))
            return np.concatenate(out).reshape(x.shape)[()]

        return mass, cdf

    def moments(self):
        """(mass, mean, variance) of the unnormalized density; a < 0."""
        masses = self._masses()
        weights = masses / np.sum(masses)
        means = -self.b / self.a
        mean = weights @ means
        var = weights @ (-1.0 / self.a + (means - mean) ** 2)
        return float(np.sum(masses)), float(mean), float(var)


def field_from_family(grid: Grid1D, fam, nodes=None) -> GridField:
    """Wrap a LogQuad as a GridField with exact evaluators.

    The family is evaluated once on the grid: one pass gives log f, whose
    exp are the values, and (log f)'' at the nodes.  ``nodes``, when given,
    is that (log f, (log f)'') at grid.points, already computed by the
    caller, and no pass is run.
    """
    logv, d2 = fam._pass(grid.points, 2)[::2] if nodes is None else nodes
    return GridField.from_callable(grid, log_fn=fam.log_at, dlog_fn=fam.dlog,
                                   d2log_fn=fam.d2log, tag=fam,
                                   nodes=(logv, d2[2:-2]))


def gaussian_field(grid: Grid1D, beta: float, mean: float = 0.0) -> GridField:
    return field_from_family(grid, LogQuad.gaussian(beta, mean))


def gaussian_ratio_field(grid: Grid1D, beta: float) -> GridField:
    """gamma_beta / gamma as a field (the extremiser input v/gamma)."""
    return field_from_family(grid, LogQuad.gaussian_ratio(beta))


def symmetric_mixture(a: float, var: float = 1.0) -> LogQuad:
    """(1/2) gamma_var(. + a) + (1/2) gamma_var(. - a)."""
    g = LogQuad.gaussian(var, np.array([-a, a]))
    return LogQuad(g.a, g.b, g.c + np.log(0.5))
