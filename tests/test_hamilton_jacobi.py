import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from gauss_deficit import cli
from gauss_deficit.families import LogQuad
from gauss_deficit.hamilton_jacobi import (HJField, beta_of_a,
                                           dual_talagrand_check, hj_hc_check,
                                           hopf_lax, hopf_lax_quadratic,
                                           quadratic_datum)
from gauss_deficit.numerics import GridField, ParameterError


def constant_datum(grid, value):
    def zero(y):
        return np.zeros(np.shape(y))
    return HJField(GridField.from_callable(
        grid, lambda y: np.full(np.shape(y), value)), zero, zero, 0.0, 0.0)


def perturbed_datum(grid, a, beta, c=0.03, m=0.4):
    """Extremiser quadratic plus a small convex bump, c log cosh(y - m);
    stays admissible.  Its exact f' is base f' + c tanh(y - m) and its f''
    base f'' + c sech^2(y - m), whose inf and limit are the base's."""
    base = quadratic_datum(a, beta_of_a(a, beta), grid)
    return HJField(GridField.from_callable(
        grid, lambda y: base.f(y) + c * np.log(np.cosh(y - m))),
        lambda y: base.slope(y) + c * np.tanh(y - m),
        lambda y: base.laplacian(y) + c / np.cosh(y - m) ** 2,
        base.inf_laplacian, base.kappa)


def log_datum(fam, grid):
    """The datum log fam of a one-component LogQuad, f'' its constant a."""
    k = float(fam.a[0])
    return HJField(GridField.from_callable(grid, fam.log_at), fam.dlog,
                   fam.d2log, k, k)


def suite_data(seed, beta, items):
    """(datum, tau) of verify-hj (a = config.a) and verify-dual-talagrand
    (a = 0.02) at the given items."""
    config = cli.RunConfig("verify-hj", seed=seed, beta=beta)
    for a in (config.a, 0.02):
        for i in items:
            yield cli._perturbed_quadratic(config, i, a), config.tau


class TestHopfLax:
    def test_constant_datum_fixed(self, grid):
        f = constant_datum(grid, 1.7)
        q = hopf_lax(f, 0.7)
        np.testing.assert_allclose(q(grid.points), 1.7, atol=1e-12)

    def test_dominated_by_datum(self, grid, rule):
        # Q_tau f(x) <= f(x), the cost at y = x
        f = perturbed_datum(grid, 1.0, 2.0)
        for x in (grid.points, rule.nodes):
            assert np.all(hopf_lax(f, 0.5)(x) <= f.f(x) + 1e-12)

    def test_quadratic_closed_form(self, grid, rule):
        # Newton lands on the quadratic datum's root in one step, from any
        # tau: Q_tau f meets the closed form to rounding
        a, alpha = 1.0, 2.0
        for tau in (0.3, 1.0, 1e6):
            q = hopf_lax(quadratic_datum(a, alpha, grid), tau)
            exact = hopf_lax_quadratic(a, alpha, tau)
            for x in (rule.nodes, grid.points):
                np.testing.assert_allclose(q(x), exact.log_at(x),
                                           rtol=1e-14, atol=1e-14)

    def test_envelope_closure_off_the_grid(self, grid, rule):
        # the returned closure reads Q_tau f at any x: between the grid's
        # nodes and at the Gauss-Hermite nodes it matches the closed form
        a, alpha, tau = 1.0, 2.0, 1.0
        q = hopf_lax(quadratic_datum(a, alpha, grid), tau)
        exact = hopf_lax_quadratic(a, alpha, tau)
        mids = grid.points[:-1] + 0.5 * grid.spacing
        for x in (mids[np.abs(mids) <= 10], rule.nodes[np.abs(rule.nodes)
                                                       <= 10]):
            assert np.max(np.abs(q(x) - exact.log_at(x))) < 1e-8

    def test_closure_continues_past_the_grid(self, grid, rule):
        # nothing is read on the grid: at x = +-20 the minimiser y = x/1.5
        # lies past it, and Q_tau f is the closed form there as inside
        f = quadratic_datum(1.0, 2.0, grid)
        q = hopf_lax(f, 1.0)
        exact = hopf_lax_quadratic(1.0, 2.0, 1.0)
        coef, const = float(exact.a[0]), float(exact.c[0])
        for x in (rule.nodes, np.array([grid.lo, grid.hi])):
            assert np.max(np.abs(q(x) - (0.5 * coef * x * x + const))) < 1e-14
        y = np.array([-20.0, -12.5, 12.5, 20.0])
        np.testing.assert_allclose(q(y), 0.5 * coef * y * y + const,
                                   rtol=1e-15, atol=0)

    def test_semigroup_property(self, grid, rule):
        # Q_0.3 Q_0.5 f = Q_0.8 f, Q_0.5 f the closed form as a datum
        f = quadratic_datum(1.0, 3.0, grid)
        q_half = log_datum(hopf_lax_quadratic(1.0, 3.0, 0.5), grid)
        for x in (rule.nodes, grid.points):
            np.testing.assert_allclose(hopf_lax(q_half, 0.3)(x),
                                       hopf_lax(f, 0.8)(x),
                                       rtol=1e-14, atol=1e-14)

    def test_rejects_nonpositive_tau(self, grid):
        with pytest.raises(ParameterError):
            hopf_lax(constant_datum(grid, 0.0), 0.0)

    @pytest.mark.parametrize("tau", [np.inf, np.nan])
    def test_rejects_unbounded_extension_before_allocating(self, grid, tau):
        # an infinite or NaN tau leaves Newton no bracket; it is refused
        # before the closure is built
        f = constant_datum(grid, 0.0)
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="tau"):
                hopf_lax(f, tau)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_rejects_a_datum_with_inf_laplacian_at_most_minus_one_over_tau(
            self, grid, rule):
        # f = -y^2/2 (k = -1): the cost is strictly convex for tau < 1
        # only, where Q_tau f is still the closed form
        f = quadratic_datum(1.0, 0.5, grid)
        for tau in (1.0, 2.0):
            with pytest.raises(ParameterError, match="-1/tau"):
                hopf_lax(f, tau)
        np.testing.assert_allclose(
            hopf_lax(f, 0.5)(rule.nodes),
            hopf_lax_quadratic(1.0, 0.5, 0.5).log_at(rule.nodes),
            rtol=1e-14, atol=1e-14)


class TestNewtonOracle:
    """Newton's Q_tau f against scipy's Brent minimum of the cost."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_suite_data_against_brent(self, seed, rule):
        # the data of verify-hj and verify-dual-talagrand, items 0-3
        for f, tau in suite_data(seed, 2.0, range(4)):
            want = [minimize_scalar(
                lambda y, x=x: float(f.f(y)) + (x - y) ** 2 / (2.0 * tau),
                bracket=(x - 1.0, x), tol=1e-12).fun for x in rule.nodes]
            np.testing.assert_allclose(hopf_lax(f, tau)(rule.nodes), want,
                                       rtol=1e-12, atol=1e-12)

    def test_one_read_holds_no_grid_sized_array(self, rule):
        # a read holds a few arrays the size of its 96 points, under 10 KB;
        # candidates over the 4097-node grid (33 KB an array) would pass
        # the cap
        for seed in (0, 1, 2):
            for beta in (1.25, 2.0, 4.0):
                for f, tau in suite_data(seed, beta, range(6)):
                    q = hopf_lax(f, tau)
                    tracemalloc.start()
                    try:
                        q(rule.nodes)
                        peak = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                    assert peak <= 64_000


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
    def test_datum_without_its_laplacian_is_refused(self, grid):
        # f', f'', inf f'' and kappa are required: no grid sample stands in
        # for a datum's missing exact derivatives or global facts
        f = quadratic_datum(0.02, beta_of_a(0.02, 2.0), grid)
        for given in ((f.f,), (f.f, f.slope), (f.f, f.slope, f.laplacian),
                      (f.f, f.slope, f.laplacian, f.inf_laplacian)):
            with pytest.raises(TypeError):
                HJField(*given)

    @pytest.mark.parametrize("beta", [1.25, 2.0, 4.0])
    def test_margins_read_the_datum(self, grid, rule, beta):
        # inf f'' = kappa = 1 - 1/beta on the suite data: the Laplacian
        # margin is 0 and exp-moment-integrable 1 - 1/(2 beta(a)) - a kappa
        f = perturbed_datum(grid, 1.0, beta)
        margins = {h.name: h.margin
                   for h in hj_hc_check(f, 1.0, 1.0, beta, rule).hypotheses}
        assert margins["laplacian>=1-1/beta"] == pytest.approx(0, abs=1e-15)
        assert margins["exp-moment-integrable"] == pytest.approx(
            0.5 / beta, rel=1e-14)
        f = perturbed_datum(grid, 0.02, beta)
        for h in dual_talagrand_check(f, 1.0, beta, rule).hypotheses[1:]:
            a = float(h.name[len("exp-moment-integrable(a="):-1])
            assert h.margin == pytest.approx(
                0.5 - 0.5 * a * (1.0 - 1.0 / beta), rel=1e-14)

    def test_divergent_exponential_moment_fails(self, grid, rule):
        # f = y^2/2 at a = 1, beta = 2: e^{2f} gamma^2/gamma_2 is
        # e^{y^2/4} against dx, so the margin is 3/4 - 1 < 0
        f = log_datum(LogQuad(1.0, 0.0, 0.0), grid)
        r = hj_hc_check(f, 1.0, 1.0, 2.0, rule)
        margins = {h.name: h.margin for h in r.hypotheses}
        assert margins["exp-moment-integrable"] == -0.25
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
