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
    return HJField.from_field(GridField(grid, np.abs(grid.points)))


def perturbed_datum(grid, a, beta, c=0.03, m=0.4):
    """Extremiser quadratic plus a small convex bump; stays admissible."""
    base = quadratic_datum(a, beta_of_a(a, beta), grid)
    x = grid.points
    vals = base.f.values + c * np.log(np.cosh(x - m))
    return HJField.from_field(GridField(grid, vals))


class TestHopfLax:
    def test_moreau_envelope_of_abs(self, grid):
        # Q_tau |x| = x^2/(2 tau) on |x| <= tau, |x| - tau/2 outside
        tau = 1.0
        q = hopf_lax(abs_datum(grid), tau)
        x = grid.points
        exact = np.where(np.abs(x) <= tau, x * x / (2 * tau),
                         np.abs(x) - tau / 2)
        mask = np.abs(x) <= 10
        assert np.max(np.abs(q.values[mask] - exact[mask])) < 5e-6

    def test_constant_datum_fixed(self, grid):
        f = HJField.from_field(GridField(grid, np.full(grid.n, 1.7)))
        q = hopf_lax(f, 0.7)
        np.testing.assert_allclose(q.values, 1.7, atol=1e-12)

    def test_dominated_by_datum(self, grid):
        f = abs_datum(grid)
        q = hopf_lax(f, 0.5)
        assert np.all(q.values <= f.f.values + 1e-12)

    def test_quadratic_closed_form(self, grid):
        a, alpha, tau = 1.0, 2.0, 1.0
        q = hopf_lax(quadratic_datum(a, alpha, grid), tau)
        coef, const = hopf_lax_quadratic(a, alpha, tau)
        x = grid.points
        exact = 0.5 * coef * x * x + const
        mask = np.abs(x) <= 10
        assert np.max(np.abs(q.values[mask] - exact[mask])) < 1e-8

    def test_envelope_closure_off_the_grid(self, grid, rule):
        # the returned field reads the lower envelope at any x: its values
        # are the closure at the nodes, and between the nodes and at the
        # Gauss-Hermite nodes it matches the closed form as on the grid
        a, alpha, tau = 1.0, 2.0, 1.0
        q = hopf_lax(quadratic_datum(a, alpha, grid), tau)
        np.testing.assert_array_equal(q(grid.points), q.values)
        coef, const = hopf_lax_quadratic(a, alpha, tau)
        mids = grid.points[:-1] + 0.5 * grid.spacing
        for x in (mids[np.abs(mids) <= 10], rule.nodes[np.abs(rule.nodes)
                                                       <= 10]):
            assert np.max(np.abs(q(x) - (0.5 * coef * x * x + const))) < 1e-8

    def test_closure_continues_past_the_grid(self, grid, rule):
        # a datum with an exact closure is continued by it beyond the grid:
        # the convex quadratic's Lipschitz continuation fell below it there,
        # and Q_tau f read 6.0 under the closed form at x = +-12
        f = quadratic_datum(1.0, 2.0, grid)
        y = np.array([-20.0, -12.5, 12.5, 20.0])
        np.testing.assert_array_equal(f.extended(y), f.f(y))
        q = hopf_lax(f, 1.0)
        coef, const = hopf_lax_quadratic(1.0, 2.0, 1.0)
        for x in (rule.nodes, np.array([grid.lo, grid.hi])):
            assert np.max(np.abs(q(x) - (0.5 * coef * x * x + const))) < 1e-14

    def test_values_only_datum_keeps_lipschitz_continuation(self, grid):
        closure = quadratic_datum(1.0, 2.0, grid)
        f = HJField(GridField(grid, closure.f.values),
                    closure.lipschitz_estimate, closure.lower_linear_bound)
        y = np.array([-20.0, -12.5, 12.5, 20.0])
        edge = np.where(y < 0, f.f.values[0], f.f.values[-1])
        want = np.maximum(-f.lower_linear_bound * (1.0 + np.abs(y)),
                          edge - f.lipschitz_estimate * (np.abs(y) - 12.0))
        np.testing.assert_allclose(f.extended(y), want, rtol=1e-15)

    def test_semigroup_property(self, small_grid):
        f = quadratic_datum(1.0, 3.0, small_grid)
        q_direct = hopf_lax(f, 0.8)
        q_half = hopf_lax(f, 0.5)
        q_chain = hopf_lax(HJField.from_field(q_half), 0.3)
        x = small_grid.points
        mask = np.abs(x) <= 8
        assert np.max(np.abs(q_chain.values[mask]
                             - q_direct.values[mask])) < 1e-4

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
    ext = (f.lower_linear_bound + f.lipschitz_estimate) * tau \
        + 4.0 * max(1.0, tau)
    n_ext = int(np.ceil(ext / g.spacing))
    left = g.lo - g.spacing * np.arange(n_ext, 0, -1)
    right = g.hi + g.spacing * np.arange(1, n_ext + 1)
    ys = np.concatenate([left, x, right])
    fy = np.concatenate([f.extended(left), f.f.values, f.extended(right)])
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
                    hopf_lax(f, config.tau).values,
                    brute_hopf_lax(f, config.tau))

    @pytest.mark.parametrize("tau", [0.3, 1.0, 2.5])
    def test_kinked_random_nonconvex_constant(self, small_grid, tau):
        x = small_grid.points
        walk = np.cumsum(np.random.default_rng(11).normal(size=x.size))
        for vals in (np.abs(x), 0.05 * walk, np.cos(3 * x) + 0.1 * x * x,
                     np.full(x.size, 1.7)):
            f = HJField.from_field(GridField(small_grid, vals))
            np.testing.assert_allclose(hopf_lax(f, tau).values,
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
        f = HJField.from_field(GridField(grid, np.zeros(grid.n)))
        r = hj_hc_check(f, 1.0, 1.0, 2.0, rule)
        assert not r.asserted


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
