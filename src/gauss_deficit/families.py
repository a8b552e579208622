"""
Closed-form families: sums of log-quadratic functions.

A LogQuad is f(x) = sum_k exp(a_k x^2/2 + b_k x + c_k) with K >= 1
components held as arrays.  K = 1 is a single log-quadratic; K > 1 is a
positive Gaussian mixture, such as every Fokker-Planck snapshot of a finite
measure.  The family is closed under the Ornstein-Uhlenbeck semigroup and
the Fokker-Planck kernel (complete-the-square identities, applied per
component), and one component under powers, which makes it the workhorse
for extremiser checks; functionals.tilt takes it to v/gamma.
Fields built from these carry exact evaluators for log f, (log f)' and
(log f)'', the last from the component posterior in the same pass, and are
evaluated once on their grid: that one pass gives the values and the node
arrays of log f and (log f)''.  The pass works on (K, points) blocks, a row
per component, in scratch allocated once.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .numerics import Grid1D, GridField, ParameterError, ndtr

# (point, component) pairs per block of the evaluation pass: cache-sized
_CHUNK = 1 << 16


def _by_blocks(x, step: int, rows: int, fn, scratch: int, width: int):
    """``rows`` values per point of x from fn(xs, work), called in order on
    1-D blocks xs of ``step`` points.  ``work`` (``scratch`` rows of
    step * width doubles) is allocated once: fresh block-sized temporaries
    cost page faults.  Each output row is its own array, keeping no other."""
    x = np.asarray(x, float)
    flat = x.ravel()
    out = [np.empty(flat.size) for _ in range(rows)]
    work = np.empty((scratch, min(step, flat.size) * width))
    for i in range(0, flat.size, step):
        xs = flat[i:i + step]
        for o, part in zip(out, fn(xs, work[:, :xs.size * width])):
            o[i:i + step] = part
    return [o.reshape(x.shape)[()] for o in out]


@dataclass(frozen=True, eq=False)
class LogQuad:
    """f(x) = sum_k exp(a_k x^2 / 2 + b_k x + c_k) over K >= 1 components.

    ``a``, ``b``, ``c`` are 1-D arrays of length K (scalars give K = 1);
    mixture weights w_k are folded into c_k as log w_k.  ``_about(s)``, when
    given, returns the components' (a, b, c) in the coordinate u = x - s,
    computed from their exact centres; evaluation then takes each block
    about the mid-point of its finite points.  Held about 0, b and c carry
    rounding that grows like |x| |b| far from the origin, which moves
    (log f)'' by about 1e-12 at |x| = 12 for components of variance 0.05.
    The algebra below returns families without it.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray = 0.0
    _about: Optional[Callable] = field(default=None, repr=False)

    def __post_init__(self):
        arrs = [np.array(v, float, ndmin=1) for v in (self.a, self.b, self.c)]
        K = max(v.size for v in arrs)
        for name, v in zip("abc", arrs):
            if v.ndim != 1 or v.size not in (1, K) or K == 0:
                raise ParameterError("a, b, c must be scalars or 1-D arrays "
                                     "of one length")
            object.__setattr__(self, name, v if v.size == K else v.repeat(K))

    # -- construction -----------------------------------------------------

    @staticmethod
    def gaussian(beta: float, mean=0.0) -> "LogQuad":
        """The density gamma_beta(x - mean); one component per mean."""
        if beta <= 0:
            raise ParameterError("beta must be positive")
        return LogQuad(-1.0 / beta, mean / beta,
                       -mean**2 / (2.0 * beta) - 0.5 * np.log(2 * np.pi * beta))

    # -- pointwise --------------------------------------------------------

    def _pass(self, x, order: int = 2):
        """[log f, (log f)', (log f)''][:order + 1] at x, in one pass.

        Under the component posterior p_k = exp(L_k) / f, with L_k the k-th
        exponent, (log f)' = E_p[a x + b] and (log f)'' = E_p[a] +
        Var_p(a x + b), the variance taken about the posterior mean so that
        no digits cancel.  Each block of _CHUNK // K points sums all K
        components on (K, points) arrays, a row per component: the
        exponents are built in place in the first scratch row, and the
        squared slope deviations for (log f)'' in the second.  K = 1 returns
        the quadratic directly, only the orders asked for, its (log f)'' = a
        as a read-only broadcast that holds no array.
        """
        x = np.asarray(x, float)
        K = self.a.size
        if K == 1:
            a, b, c = self.a[0], self.b[0], self.c[0]
            rows = (lambda: 0.5 * a * x * x + b * x + c, lambda: a * x + b,
                    lambda: np.broadcast_to(a, x.shape))
            return [row() for row in rows[:order + 1]]

        def block(u, work):
            if self._about is None:
                a, b, c = self.a, self.b, self.c
            else:
                ok = u if np.isfinite(u).all() else u[np.isfinite(u)]
                s = 0.5 * (ok.min() + ok.max()) if ok.size else 0.0
                u = u - s
                a, b, c = self._about(s)
            L = np.multiply(0.5 * a[:, None], u, out=work[0].reshape(K, -1))
            L += b[:, None]
            L *= u
            L += c[:, None]
            top = L.max(axis=0)
            # L = -inf at x = +-inf stays so; terms below e^-600 cannot move
            # a sum >= 1, and the floor keeps exp off slow subnormal results
            np.subtract(L, top, out=L, where=np.isfinite(top))
            p = np.exp(np.maximum(L, -600.0, out=L), out=L)
            s0 = p.sum(axis=0)
            if order == 0:  # s0 is not read again: its log in place
                top += np.log(s0, out=s0)
                return [top]
            top += np.log(s0)
            sa = a @ p
            mean = (sa * u + b @ p) / s0
            if order == 1:
                return [top, mean]
            d = np.multiply(a[:, None], u, out=work[1].reshape(K, -1))
            d += b[:, None]
            np.subtract(d, mean, out=d, where=np.isfinite(mean))
            d *= d
            d *= p
            d2 = (sa + d.sum(axis=0)) / s0
            np.copyto(d2, a.max(), where=np.isinf(u))  # its limit at +-inf
            return [top, mean, d2]

        return _by_blocks(x, max(1, _CHUNK // K), order + 1, block,
                          scratch=2 if order > 1 else 1, width=K)

    def log_at(self, x):
        return self._pass(x, 0)[0]

    def log_at_sums(self, x, y):
        """log f at the sums x_i + y_j of 1-D x and y, an (|x|, |y|) array.

        With every a_k equal, sum_k e^{b_k t + c_k} at t = x + y is the
        (|x| x K)(K x |y|) product of e^{b_k x + c_k} and e^{b_k y}, rows and
        columns shifted by their largest exponents, and log f adds a t^2/2:
        2K(|x| + |y|) exps, not K |x| |y|, as in the fast Gauss transform.
        It is taken where the shifted sum, >= e^{-(max b - min b) max|y|},
        is >= e^-600, else log_at reads the sums; _about centres both
        factors on the sums' mid-point, as _pass centres a block."""
        x, y = (np.asarray(v, float) for v in (x, y))
        a, b, c, u, w = self.a, self.b, self.c, x, y
        ok = x.size * y.size and np.isfinite(x.sum() + y.sum())
        if ok and self._about is not None:
            sx, sy = 0.5 * (x.min() + x.max()), 0.5 * (y.min() + y.max())
            (a, b, c), u, w = self._about(sx + sy), x - sx, y - sy
        if not ok or np.ptp(a) or not np.ptp(b) * np.abs(w).max() <= 600.0:
            return self.log_at(x[:, None] + y)
        rows, cols = b * u[:, None] + c, np.multiply.outer(b, w)
        m, n = rows.max(axis=1, keepdims=True), cols.max(axis=0)
        t = u[:, None] + w
        return (np.log(np.exp(rows - m) @ np.exp(cols - n)) + (m + n)
                + 0.5 * a[0] * t * t)

    def __call__(self, x):
        return np.exp(self.log_at(x))

    def dlog(self, x):
        return self._pass(x, 1)[1]

    def d2log(self, x):
        return self._pass(x, 2)[2]

    # -- algebra ----------------------------------------------------------

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

    def cdf(self):
        """The normalized CDF as a callable; requires every a_k < 0.
        ndtr takes a row per component, so that its branches run on sorted
        stretches, and at most _CHUNK / 4 (point, component) pairs a call:
        it holds four doubles a pair, a quantile map's peak memory."""
        masses = self._masses()
        weights = masses / np.sum(masses)
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

        return cdf

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


# the one tag of every gaussian_field(grid, 1): transport keeps its CDF
_GAMMA = LogQuad.gaussian(1.0)


def gaussian_field(grid: Grid1D, beta: float) -> GridField:
    return field_from_family(grid, _GAMMA if beta == 1 else
                             LogQuad.gaussian(beta))


def symmetric_mixture(a: float, var: float = 1.0) -> LogQuad:
    """(1/2) gamma_var(. + a) + (1/2) gamma_var(. - a)."""
    g = LogQuad.gaussian(var, np.array([-a, a]))
    return LogQuad(g.a, g.b, g.c + np.log(0.5))
