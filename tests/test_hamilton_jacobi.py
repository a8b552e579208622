import tracemalloc

import numpy as np
import pytest

from gauss_deficit import cli
from gauss_deficit.hamilton_jacobi import (HJField, beta_of_a,
                                           dual_talagrand_check, hj_hc_check,
                                           hopf_lax, hopf_lax_quadratic,
                                           quadratic_datum)
from gauss_deficit.numerics import GridField, ParameterError, default_grid


def abs_datum(grid):
    return HJField(GridField.from_callable(grid, np.abs))


def constant_datum(grid, value):
    return HJField(GridField.from_callable(
        grid, lambda y: np.full(np.shape(y), value)),
        laplacian=lambda y: np.zeros(np.shape(y)))


def perturbed_datum(grid, a, beta, c=0.03, m=0.4):
    """Extremiser quadratic plus a small convex bump, c log cosh(y - m);
    stays admissible.  Its exact f'' is base f'' + c sech^2(y - m)."""
    base = quadratic_datum(a, beta_of_a(a, beta), grid)
    return HJField(GridField.from_callable(
        grid, lambda y: base.f(y) + c * np.log(np.cosh(y - m))),
        laplacian=lambda y: base.laplacian(y) + c / np.cosh(y - m) ** 2)


class TestHopfLax:
    def test_moreau_envelope_of_abs(self, grid):
        # Q_tau |x| = x^2/(2 tau) on |x| <= tau, |x| - tau/2 outside
        tau = 1.0
        q = hopf_lax(abs_datum(grid), tau)
        x = grid.points
        exact = np.where(np.abs(x) <= tau, x * x / (2 * tau),
                         np.abs(x) - tau / 2)
        mask = np.abs(x) <= 10
        assert np.max(np.abs(q(x)[mask] - exact[mask])) < 5e-6

    def test_constant_datum_fixed(self, grid):
        f = constant_datum(grid, 1.7)
        q = hopf_lax(f, 0.7)
        np.testing.assert_allclose(q(grid.points), 1.7, atol=1e-12)

    def test_dominated_by_datum(self, grid):
        f = abs_datum(grid)
        q = hopf_lax(f, 0.5)
        assert np.all(q(grid.points) <= f.f.values + 1e-12)

    def test_quadratic_closed_form(self, grid):
        a, alpha, tau = 1.0, 2.0, 1.0
        q = hopf_lax(quadratic_datum(a, alpha, grid), tau)
        x = grid.points
        exact = hopf_lax_quadratic(a, alpha, tau).log_at(x)
        mask = np.abs(x) <= 10
        assert np.max(np.abs(q(x)[mask] - exact[mask])) < 1e-8

    def test_envelope_closure_off_the_grid(self, grid, rule):
        # the returned closure reads the lower envelope at any x: between
        # the nodes and at the Gauss-Hermite nodes it matches the closed
        # form as on the grid
        a, alpha, tau = 1.0, 2.0, 1.0
        q = hopf_lax(quadratic_datum(a, alpha, grid), tau)
        exact = hopf_lax_quadratic(a, alpha, tau)
        mids = grid.points[:-1] + 0.5 * grid.spacing
        for x in (mids[np.abs(mids) <= 10], rule.nodes[np.abs(rule.nodes)
                                                       <= 10]):
            assert np.max(np.abs(q(x) - exact.log_at(x))) < 1e-8

    def test_closure_continues_past_the_grid(self, grid, rule):
        # a datum with an exact closure is continued by it beyond the grid:
        # the convex quadratic's Lipschitz continuation fell below it there,
        # and Q_tau f read 6.0 under the closed form at x = +-12
        f = quadratic_datum(1.0, 2.0, grid)
        q = hopf_lax(f, 1.0)
        exact = hopf_lax_quadratic(1.0, 2.0, 1.0)
        coef, const = float(exact.a[0]), float(exact.c[0])
        for x in (rule.nodes, np.array([grid.lo, grid.hi])):
            assert np.max(np.abs(q(x) - (0.5 * coef * x * x + const))) < 1e-14
        # past the grid too: at x = +-20 the minimiser y = x/1.5 lies in
        # the extension, which holds the datum's closure, not a linear bound
        y = np.array([-20.0, -12.5, 12.5, 20.0])
        np.testing.assert_allclose(q(y), 0.5 * coef * y * y + const,
                                   rtol=1e-15, atol=0)

    def test_semigroup_property(self, small_grid):
        f = quadratic_datum(1.0, 3.0, small_grid)
        q_direct = hopf_lax(f, 0.8)
        q_half = hopf_lax(f, 0.5)
        q_chain = hopf_lax(
            HJField(GridField.from_callable(small_grid, q_half)), 0.3)
        x = small_grid.points
        mask = np.abs(x) <= 8
        assert np.max(np.abs(q_chain(x)[mask] - q_direct(x)[mask])) < 1e-4

    def test_rejects_nonpositive_tau(self, grid):
        with pytest.raises(ParameterError):
            hopf_lax(abs_datum(grid), 0.0)

    @pytest.mark.parametrize("tau", [1e6, np.inf, np.nan])
    def test_rejects_unbounded_extension_before_allocating(self, grid, tau):
        # at tau = 1e6 the pad would be 1.7e9 nodes a side (13 GiB); the cap
        # of 64 (n - 1) nodes is checked before any array is built
        f = abs_datum(grid)
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="tau"):
                hopf_lax(f, tau)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


def brute_hopf_lax(f, tau):
    """min over the candidate set of hopf_lax by a full (x, y) cost matrix,
    with the same sub-grid parabola step."""
    g = f.f.grid
    x = g.points
    # the datum's linear lower bound C and Lipschitz estimate, read off its
    # values, set the extension's width; past the grid the datum is its
    # closure, never below -C(1+|y|)
    C = max(0.0, float(np.max(-f.f.values / (1.0 + np.abs(x)))))
    lip = float(np.max(np.abs(np.gradient(f.f.values, g.spacing,
                                          edge_order=2))))
    ext = (C + lip) * tau + 4.0 * max(1.0, tau)
    n_ext = int(np.ceil(ext / g.spacing))
    left = g.lo - g.spacing * np.arange(n_ext, 0, -1)
    right = g.hi + g.spacing * np.arange(1, n_ext + 1)
    ys = np.concatenate([left, x, right])
    fy = np.concatenate([np.maximum(-C * (1.0 + np.abs(left)), f.f(left)),
                         f.f.values,
                         np.maximum(-C * (1.0 + np.abs(right)), f.f(right))])
    out = np.empty(x.size)
    chunk = max(1, 8_000_000 // ys.size)
    for i in range(0, x.size, chunk):
        cost = fy + (x[i:i + chunk, None] - ys) ** 2 / (2.0 * tau)
        j = cost.argmin(axis=1)
        rows = np.arange(j.size)
        best, cl, cr, cll, crr = (
            cost[rows, np.clip(j + d, 0, ys.size - 1)]
            for d in (0, -1, 1, -2, 2))
        interior = (j > 1) & (j < ys.size - 2)
        curv = cl + cr - 2.0 * best
        with np.errstate(divide="ignore", invalid="ignore"):
            vertex = best - (cr - cl) ** 2 / (8.0 * curv)
        misfit = np.maximum(np.abs(cll - (best + (cl - cr) + 2.0 * curv)),
                            np.abs(crr - (best + (cr - cl) + 2.0 * curv)))
        use = (interior & (curv > 0) & np.isfinite(vertex)
               & (misfit <= 0.05 * curv + 1e-12))
        out[i:i + chunk] = np.where(use, np.minimum(best, vertex), best)
    return out


class TestHopfLaxOracle:
    """The lower-envelope minimum against the brute-force cost matrix."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_suite_data_bit_identical(self, seed):
        # the data of verify-hj (a = config.a) and verify-dual-talagrand
        # (a = 0.02), items 0-3
        config = cli.RunConfig("verify-hj", seed=seed)
        for a in (config.a, 0.02):
            for i in range(4):
                f = cli._perturbed_quadratic(config, i, a)
                np.testing.assert_array_equal(
                    hopf_lax(f, config.tau)(f.f.grid.points),
                    brute_hopf_lax(f, config.tau))

    @pytest.mark.parametrize("tau", [0.3, 1.0, 2.5])
    def test_kinked_random_nonconvex_constant(self, small_grid, tau):
        x = small_grid.points
        walk = np.cumsum(np.random.default_rng(11).normal(size=x.size))
        for fn in (np.abs, lambda y: np.interp(y, x, 0.05 * walk),
                   lambda y: np.cos(3 * y) + 0.1 * y * y,
                   lambda y: np.full(np.shape(y), 1.7)):
            f = HJField(GridField.from_callable(small_grid, fn))
            np.testing.assert_allclose(hopf_lax(f, tau)(x),
                                       brute_hopf_lax(f, tau),
                                       rtol=0, atol=1e-13)


class TestQuadraticHelpers:
    def test_beta_of_a(self):
        assert beta_of_a(1.0, 2.0) == pytest.approx(2.0)
        assert beta_of_a(0.5, 2.0) == pytest.approx(4.0 / 3.0)
        with pytest.raises(ParameterError):
            beta_of_a(2.0, 4.0)  # 1 - 2(3/4) < 0

    def test_quadratic_datum_validation(self, grid):
        with pytest.raises(ParameterError):
            quadratic_datum(-1.0, 2.0, grid)
        with pytest.raises(ParameterError):
            quadratic_datum(1.0, 0.0, grid)


class TestHJHypercontractivity:
    def test_extremiser_zero_slack(self, grid, rule):
        a, tau, beta = 1.0, 1.0, 2.0
        f = quadratic_datum(a, beta_of_a(a, beta), grid)
        r = hj_hc_check(f, a, tau, beta, rule)
        assert r.asserted
        assert r.slack == pytest.approx(0, abs=1e-10)

    def test_perturbed_positive_slack(self, grid, rule):
        f = perturbed_datum(grid, 1.0, 2.0)
        r = hj_hc_check(f, 1.0, 1.0, 2.0, rule)
        assert r.asserted
        assert r.slack >= -1e-4

    def test_inadmissible_parameters(self, grid, rule):
        f = quadratic_datum(1.0, 2.0, grid)
        with pytest.raises(ParameterError):
            hj_hc_check(f, 1.0, 1.0, 0.5, rule)  # beta <= 1
        with pytest.raises(ParameterError):
            hj_hc_check(f, 4.0, 1.0, 2.0, rule)  # beta(1 - 1/a) >= 1
        with pytest.raises(ParameterError):
            hj_hc_check(f, -1.0, 1.0, 2.0, rule)

    def test_flat_datum_not_asserted(self, grid, rule):
        # a flat datum fails the curvature hypothesis at beta = 2
        f = constant_datum(grid, 0.0)
        r = hj_hc_check(f, 1.0, 1.0, 2.0, rule)
        assert not r.asserted


class TestLaplacianHypothesis:
    def test_datum_without_its_laplacian_is_refused(self, grid, rule):
        # no difference quotient stands in for a datum's missing exact f''
        bare = HJField(quadratic_datum(0.02, beta_of_a(0.02, 2.0), grid).f)
        with pytest.raises(ParameterError, match="f''"):
            hj_hc_check(bare, 0.02, 1.0, 2.0, rule)
        with pytest.raises(ParameterError, match="f''"):
            dual_talagrand_check(bare, 1.0, 2.0, rule)


class TestDualTalagrand:
    def test_extremiser_near_zero_slack(self, grid, rule):
        a0, beta = 0.02, 2.0
        f = quadratic_datum(a0, beta_of_a(a0, beta), grid)
        r = dual_talagrand_check(f, 1.0, beta, rule)
        assert r.asserted
        assert r.slack == pytest.approx(0, abs=1e-10)
        assert abs(r.params["t_limit_gap"]) < 2e-2

    def test_perturbed_positive_slack(self, grid, rule):
        f = perturbed_datum(grid, 0.02, 2.0, c=0.02)
        r = dual_talagrand_check(f, 1.0, 2.0, rule)
        assert r.asserted
        assert r.slack >= -1e-4

    def test_requires_beta_above_one(self, grid, rule):
        f = quadratic_datum(0.02, 1.01, grid)
        with pytest.raises(ParameterError):
            dual_talagrand_check(f, 1.0, 1.0, rule)
        with pytest.raises(ParameterError):
            dual_talagrand_check(f, 0.0, 2.0, rule)
