import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gauss_deficit.families import (LogQuad, field_from_family,
                                    gaussian_field, gaussian_ratio_field,
                                    symmetric_mixture)
from gauss_deficit.flows import certify
from gauss_deficit.functionals import sharp_constant, tilt
from gauss_deficit.inequalities import (beckner_check,
                                        brascamp_lieb_check,
                                        counterexample_mixture,
                                        counterexample_superharmonic,
                                        els_eigen_check, hc_check,
                                        lsi_check, make_fp_input,
                                        make_logconcave_input,
                                        make_talagrand_input, matrix_check,
                                        poincare_check, reverse_hc_check,
                                        sample_reverse_triple)
from gauss_deficit.numerics import (GridField, ParameterError, default_grid,
                                    gauss_hermite_rule)
from gauss_deficit.semigroups import (ExponentTriple,
                                      InadmissibleExponentError,
                                      _ou_closures_1d)


def sqrt_ratio_field(grid, beta, power):
    """f = (gamma_beta/gamma)^{1/power} with exact closures."""
    fam = LogQuad.gaussian_ratio(beta) ** (1.0 / power)
    return field_from_family(grid, fam)


class TestHC:
    def test_equality_at_gamma_beta(self, grid, rule):
        t = ExponentTriple.from_pq(2.0, 4.0)
        for beta in (0.5, 2.0):
            r = hc_check(gaussian_field(grid, beta), beta, t, rule)
            assert r.asserted
            assert r.slack == pytest.approx(0, abs=1e-12)

    def test_classical_at_beta_one(self, grid, rule):
        # beta = 1 places no hypothesis and must hold for arbitrary inputs
        t = ExponentTriple.from_pq(2.0, 4.0)
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = float(rng.uniform(0.0, 2.5))
            var = float(rng.uniform(0.5, 1.5))
            v = field_from_family(grid, symmetric_mixture(a, var))
            r = hc_check(v, 1.0, t, rule)
            assert r.asserted
            assert r.slack >= -1e-10

    def test_gating_on_rough_input(self, grid, rule):
        # a strongly bimodal mixture is not 2-semi-log-subharmonic
        t = ExponentTriple.from_pq(2.0, 4.0)
        v = field_from_family(grid, symmetric_mixture(3.0, 0.5))
        r = hc_check(v, 2.0, t, rule)
        assert not r.asserted

    def test_ratio_non_increasing_in_beta(self):
        t = ExponentTriple.from_pq(2.0, 4.0)
        vals = [sharp_constant("hc_ratio", beta=b, triple=t).value
                for b in (1.0, 1.5, 2.0, 3.0, 5.0)]
        assert vals[0] == pytest.approx(1.0, abs=1e-14)
        assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_fp_inputs_positive_slack(self, grid, rule):
        t = ExponentTriple.from_pq(1.5, 3.0)
        rng = np.random.default_rng(2)
        for _ in range(3):
            v = make_fp_input(rng, 2.0, grid)
            r = hc_check(v, 2.0, t, rule)
            assert r.asserted and r.slack >= -1e-5


class TestReverseHC:
    def test_equality_at_gamma_beta(self, grid, rule):
        t = ExponentTriple.from_pq(0.5, 0.25)
        r = reverse_hc_check(gaussian_field(grid, 2.0), 2.0, t, rule)
        assert r.direction == "ge"
        assert r.asserted
        assert r.slack == pytest.approx(0, abs=1e-12)

    def test_excluded_exponents_rejected(self, grid, rule):
        v = gaussian_field(grid, 2.0)
        with pytest.raises(InadmissibleExponentError):
            # p = 1 - e^{-2s} is the excluded value
            s = 0.5 * np.log(4.0)
            p = 1.0 - np.exp(-2 * s)
            t = ExponentTriple(p, 1.0 + (p - 1.0) * np.exp(2 * s), s)
            reverse_hc_check(v, 2.0, t, rule)

    def test_opposite_sign_needs_concave(self, grid, rule):
        t = ExponentTriple.from_pq(0.5, -1.0)
        # concave hypothesis at beta < 1: the log-concave generator passes
        rng = np.random.default_rng(4)
        v = make_logconcave_input(rng, 0.5, grid)
        r = reverse_hc_check(v, 0.5, t, rule)
        assert r.asserted and r.slack >= -1e-5

    def test_sampled_triples_avoid_bands(self):
        rng = np.random.default_rng(9)
        for same in (True, False):
            for _ in range(10):
                t = sample_reverse_triple(rng, same)
                band = 1.0 - np.exp(-2.0 * t.s)
                assert abs(t.p) >= 0.05 and abs(t.p - band) >= 0.05
                assert (t.p * t.q > 0) == same


class TestLSI:
    @pytest.mark.parametrize("beta", [0.25, 0.5, 2.0, 4.0])
    def test_equality_at_gamma_beta(self, beta, grid, rule):
        r = lsi_check(gaussian_field(grid, beta), beta, rule)
        assert r.asserted
        assert r.slack == pytest.approx(0, abs=1e-12)
        assert r.sharp_constant == pytest.approx(
            sharp_constant("lsi_gauss", beta=beta).value, abs=1e-14)

    def test_unnormalized_input_rejected(self, grid, rule):
        q = LogQuad.gaussian(1.0)
        v = GridField.from_callable(grid, lambda x: 2.0 * q(x))
        with pytest.raises(ParameterError):
            lsi_check(v, 2.0, rule)


class TestELS:
    def test_equality_at_small_gamma_beta(self, grid, rule):
        # for beta <= 1 the eigenvalue correction is active and exact
        r = els_eigen_check(gaussian_field(grid, 0.5), rule)
        assert r.slack == pytest.approx(0, abs=1e-9)

    def test_no_hypotheses(self, grid, rule):
        v = field_from_family(grid, symmetric_mixture(3.0, 0.5))
        r = els_eigen_check(v, rule)
        assert r.hypotheses == [] or r.asserted
        assert r.slack >= -1e-9


class TestMatrix:
    @staticmethod
    def _factors(grid, b1, b2):
        """The factors of the product density gamma_b1 (x) gamma_b2."""
        return gaussian_field(grid, b1), gaussian_field(grid, b2)

    def test_lsi_equality_at_gamma_b(self, grid):
        rule = gauss_hermite_rule(48)
        B = np.diag([2.0, 3.0])
        v1, v2 = self._factors(grid, 2.0, 3.0)
        r = matrix_check(v1, v2, B, which="lsi", rule=rule)
        assert r.asserted
        assert r.slack == pytest.approx(0, abs=1e-9)

    def test_mixed_eigenvalues_concave_side(self, grid):
        rule = gauss_hermite_rule(48)
        B = np.diag([0.5, 0.25])
        v1, v2 = self._factors(grid, 0.5, 0.25)
        r = matrix_check(v1, v2, B, which="lsi", rule=rule)
        assert r.asserted
        assert r.slack == pytest.approx(0, abs=1e-8)

    def test_forced_side(self, grid):
        rule = gauss_hermite_rule(48)
        B = np.diag([0.5, 0.25])
        v1, v2 = self._factors(grid, 0.5, 0.25)
        r = matrix_check(v1, v2, B, which="lsi", rule=rule, side="convex")
        # the forced convex-side statement is weaker: slack strictly positive
        assert r.slack > 1e-3

    def test_requires_2d(self, grid):
        # B must be the 2 x 2 matrix of the product on R^2
        g = gaussian_field(grid, 2.0)
        with pytest.raises(ParameterError):
            matrix_check(g, g, np.diag([2.0]))


class TestMatrixHC:
    """The left side of matrix_check, a product of 1-D left sides, against
    ||P_s[(v/gamma)^{1/p}]||_{L^q(gamma_2)} for v = v1 (x) v2 taken on R^2
    with the tensor Gauss-Hermite rule, inner and outer."""

    triple = ExponentTriple.from_pq(2.0, 4.0)

    @staticmethod
    def _tensor_lhs(v1, v2, triple, rule):
        def rel_log(v, y):  # log(v/gamma), written out
            return v.log(y) + 0.5 * y * y + 0.5 * np.log(2.0 * np.pi)

        z, w = rule.nodes, rule.weights
        e = float(np.exp(-triple.s))
        sig = float(np.sqrt(1.0 - e * e))
        Z1, Z2 = np.meshgrid(z, z, indexing="ij")
        # (outer node, outer node, inner node, inner node)
        y1 = e * Z1[:, :, None, None] + sig * z[:, None]
        y2 = e * Z2[:, :, None, None] + sig * z
        log_g = (rel_log(v1, y1) + rel_log(v2, y2)) / triple.p
        psg = np.exp(log_g) @ w @ w
        q = triple.q
        return float(np.sum(np.outer(w, w) * psg ** q)) ** (1.0 / q)

    def _check(self, v1, v2, b1, b2):
        rule = gauss_hermite_rule(48)
        r = matrix_check(v1, v2, np.diag([b1, b2]), triple=self.triple,
                         which="hc", rule=rule)
        want = self._tensor_lhs(v1, v2, self.triple, rule)
        assert r.lhs == pytest.approx(want, rel=1e-10)
        return r

    def test_gaussian_product_is_extremal(self, grid):
        g = gaussian_field(grid, 2.0)
        r = self._check(g, g, 2.0, 2.0)
        assert r.asserted
        assert abs(r.slack) <= 1e-12

    @pytest.mark.parametrize("seed", [3, 5, 8])
    def test_fp_products_factorise(self, seed, grid):
        rng = np.random.default_rng(seed)
        b1, b2 = 2.0, float(rng.uniform(1.2, 4.0))
        v1 = make_fp_input(rng, b1, grid)
        v2 = make_fp_input(rng, b2, grid)
        r = self._check(v1, v2, b1, b2)
        assert r.asserted and r.slack >= -1e-9


class TestPoincare:
    def test_extremiser_family_positive(self, grid, rule):
        f = sqrt_ratio_field(grid, 2.0, 2.0)
        r = poincare_check(f, 2.0, rule)
        assert r.asserted and r.slack >= -1e-9

    def test_improvement_flag(self, grid, rule):
        f = sqrt_ratio_field(grid, 10.0, 2.0)
        r = poincare_check(f, 10.0, rule)
        assert not r.params["improves_classical"]  # D_1(10) = 0.70 < 1
        f2 = sqrt_ratio_field(grid, 25.0, 2.0)
        r2 = poincare_check(f2, 25.0, rule)
        assert r2.params["improves_classical"]  # D_1(25) = 1.13 > 1

    def test_entropy_goal_recorded(self, grid, rule):
        f = sqrt_ratio_field(grid, 2.0, 2.0)
        r = poincare_check(f, 2.0, rule)
        assert r.params["entropy_goal_slack"] >= -1e-9

    def test_gradient_exact_for_closed_form(self, grid, rule):
        # verify-poincare item 0: f = (gamma_beta/gamma)^{1/2} has
        # int |f'|^2 dgamma = beta (1 - 1/beta)^2 / 4 = 1/8 at beta = 2, 1/2;
        # f (log f)' gives it to rounding, a difference quotient to ~5e-12
        for beta in (2.0, 0.5):
            f = field_from_family(grid, LogQuad.gaussian_ratio(beta) ** 0.5)
            r = poincare_check(f, beta, rule)
            assert abs(r.rhs - 0.125) <= 1e-15

    @pytest.mark.parametrize("check", ["poincare", "beckner"])
    def test_gradient_needs_the_dlog_closure(self, grid, rule, check):
        # int |f'|^2 dgamma reads f (log f)'; no grid gradient stands in
        exact = sqrt_ratio_field(grid, 2.0, 2.0)
        f = GridField.from_callable(grid, log_fn=exact.analytic_log,
                                    d2log_fn=exact.analytic_d2log)
        with pytest.raises(ParameterError, match=r"\(log f\)'"):
            if check == "poincare":
                poincare_check(f, 2.0, rule)
            else:
                beckner_check(f, 1.5, 2.0, rule)


class TestBeckner:
    def test_p_out_of_range(self, grid, rule):
        f = sqrt_ratio_field(grid, 2.0, 1.5)
        with pytest.raises(ParameterError):
            beckner_check(f, 2.5, 2.0, rule)

    def test_extremiser_family(self, grid, rule):
        p = 1.5
        f = sqrt_ratio_field(grid, 2.0, p)
        r = beckner_check(f, p, 2.0, rule)
        assert r.asserted and r.slack >= -1e-9
        assert r.params["smoothing_slack"] >= -1e-9

    def test_smoothing_lhs_matches_grid_route(self, grid, rule):
        # int f^2 - int (P_s f)^2, the quadrature P_s f at the nodes
        # squared and summed in value space
        p = 1.5
        s = -0.5 * float(np.log(p - 1.0))
        z, w = rule.nodes, rule.weights
        v = make_fp_input(np.random.default_rng(4), 2.0, grid)

        def dlog(x):  # ((log v)' + x) / p
            return (v.dlog(x) + x) / p

        closure = GridField.from_callable(
            grid, lambda x: np.exp((v.log(x) + 0.5 * x * x
                                    + 0.5 * np.log(2 * np.pi)) / p),
            dlog_fn=dlog)
        nodal = GridField.from_callable(
            grid, lambda x: np.interp(x, grid.points, closure.values,
                                      left=0.0, right=0.0), dlog_fn=dlog)
        for f in (closure, nodal):
            r = beckner_check(f, p, 2.0, rule)
            fz = np.asarray(f(z), float)
            psf = np.exp(_ou_closures_1d(f.log, s, rule)[0](z))
            want = float((fz * fz) @ w) - float((psf ** 2) @ w)
            assert r.params["smoothing_lhs"] == pytest.approx(
                want, rel=1e-12, abs=1e-12)

    def test_b_const_derivative_matches_dn(self):
        # d/dp B(p, beta) at p = 2 equals D_n(beta)/2
        beta = 3.0
        h = 1e-5
        bp = sharp_constant("beckner_b", p=2.0 - h, beta=beta).value
        dn = sharp_constant("dn", beta=beta).value
        fd = (1.0 - bp) / h  # B(2, beta) = 1
        assert fd == pytest.approx(0.5 * dn, abs=1e-3)


class TestBrascampLieb:
    def test_reverse_concave_case_holds(self, grid):
        # (p, q) = (1/2, -1) gives c1 = c2 = 2: the reversed statement
        t = ExponentTriple.from_pq(0.5, -1.0)
        f1 = gaussian_field(grid, 0.5)
        f2 = gaussian_field(grid, 1.0)
        r = brascamp_lieb_check(f1, f2, t, 0.5)
        assert r.direction == "ge"
        assert r.asserted and r.slack >= -1e-7

    def test_forward_case_holds(self, grid):
        t = ExponentTriple.from_pq(2.0, 4.0)
        f1 = gaussian_field(grid, 2.0)
        f2 = field_from_family(grid, symmetric_mixture(0.8, 1.0))
        r = brascamp_lieb_check(f1, f2, t, 2.0)
        assert r.direction == "le"
        assert r.asserted and r.slack >= -1e-7


def full_grid_bl_lhs(f1, f2, triple):
    """The Brascamp-Lieb double integral by the trapezoid on the full
    n1 x n2 mesh."""
    c1, c2, s = 1.0 / triple.p, 1.0 - 1.0 / triple.q, triple.s
    e2s = float(np.exp(-2.0 * s))
    q11 = (1.0 - (1.0 - e2s) * c1) / (2.0 * (1.0 - e2s))
    q22 = (1.0 - (1.0 - e2s) * c2) / (2.0 * (1.0 - e2s))
    q12 = -float(np.exp(-s)) / (2.0 * (1.0 - e2s))
    x1, x2 = f1.grid.points, f2.grid.points
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    log_int = (-(q11 * X1 * X1 + 2.0 * q12 * X1 * X2 + q22 * X2 * X2)
               + c1 * np.asarray(f1.log(x1), float)[:, None]
               + c2 * np.asarray(f2.log(x2), float)[None, :])
    return float(np.trapezoid(np.trapezoid(np.exp(log_int),
                                           dx=f2.grid.spacing, axis=1),
                              dx=f1.grid.spacing))


class TestBrascampLiebOracle:
    """The nested-level trapezoid against the full 4097^2 mesh."""

    @pytest.mark.parametrize("pq, beta, mixture_f2", [
        ((2.0, 4.0), 2.0, True),     # forward
        ((0.5, -1.0), 0.5, False),   # reverse-concave
        ((-1.0, -3.0), 2.0, True),   # reverse-mixed
    ])
    def test_resolved_cases(self, grid, pq, beta, mixture_f2):
        t = ExponentTriple.from_pq(*pq)
        f1 = gaussian_field(grid, beta)
        f2 = (field_from_family(grid, symmetric_mixture(0.8, 1.0))
              if mixture_f2 else gaussian_field(grid, 1.0))
        r = brascamp_lieb_check(f1, f2, t, beta)
        assert r.lhs == pytest.approx(full_grid_bl_lhs(f1, f2, t),
                                      rel=1e-13, abs=0)
        assert r.params["trapezoid_n"] < grid.n
        assert r.params["trapezoid_gap"] <= 1e-14

    def test_unresolved_case_uses_full_grid(self, grid):
        # reverse-mixed at beta = 0.5: the levels never agree to 1e-14
        t = ExponentTriple.from_pq(-1.0, -3.0)
        f1 = gaussian_field(grid, 0.5)
        f2 = field_from_family(grid, symmetric_mixture(0.8, 1.0))
        r = brascamp_lieb_check(f1, f2, t, 0.5)
        assert r.params["trapezoid_n"] == grid.n == 4097
        assert r.params["trapezoid_gap"] > 1e-14
        assert r.lhs == full_grid_bl_lhs(f1, f2, t)
        assert r.lhs == pytest.approx(7182.2, rel=1e-5)


class TestCounterexamples:
    def test_mixture_zero_offset(self, grid):
        r = counterexample_mixture(0.0)
        assert r.slack == pytest.approx(0, abs=1e-10)
        assert r.asserted

    def test_mixture_large_offset_fails_certificate(self):
        r = counterexample_mixture(4.0)
        assert r.params["covariance"] == pytest.approx(17.0)
        assert r.slack < 0
        assert not r.asserted  # subharmonicity certificate fails

    def test_superharmonic_laplacian_positive(self):
        for t in (0.1, 0.5):
            tr = counterexample_superharmonic(t)
            sig2 = 1.0 - np.exp(-2 * t)
            exact = 2 * sig2 * np.exp(-2 * t) / (1 - sig2 ** 2)
            assert tr.delta_log_f == 0.0
            assert tr.delta_log_ptf == pytest.approx(exact, rel=1e-12)
            assert tr.grid_min > 0
            assert tr.grid_min == pytest.approx(exact, abs=1e-4)


class TestOnePassPerField:
    def test_tagged_fp_input_is_evaluated_once_on_its_grid(self, grid, rule,
                                                           monkeypatch):
        # the pass that made v's values gives every grid reader its node
        # arrays: the ratio proxy, the certificates and the tilted test
        # functions; lsi and els read the tilt at the GH nodes only
        grid_passes, one_pass = [], LogQuad._pass

        def recording(fam, x, order=2):
            if np.size(x) in (grid.n, grid.n - 4):  # nodes, or 2..n-3
                grid_passes.append(fam)
            return one_pass(fam, x, order)

        monkeypatch.setattr(LogQuad, "_pass", recording)
        rng = np.random.default_rng(4)
        v = make_fp_input(rng, 2.0, grid)
        assert v.tag.a.size > 1
        hc_check(v, 2.0, ExponentTriple.from_pq(2.0, 4.0), rule)
        reverse_hc_check(v, 2.0, sample_reverse_triple(rng, True), rule)
        lsi_check(v, 2.0, rule)
        els_eigen_check(v, rule)
        poincare_check(tilt(v, 0.5, 0.5).field(grid), 2.0, rule)
        beckner_check(tilt(v, 1 / 1.5, 1 / 1.5).field(grid), 1.5, 2.0, rule)
        # the one-component passes are the quadratic log gamma_beta of the
        # ratio proxy
        assert [q for q in grid_passes if q.a.size > 1] == [v.tag]


class TestGenerators:
    def test_fp_inputs_certified(self, grid):
        rng = np.random.default_rng(21)
        for beta in (1.5, 4.0):
            v = make_fp_input(rng, beta, grid)
            assert certify(v, "subharmonic", beta).passed

    def test_logconcave_inputs_certified(self, grid):
        rng = np.random.default_rng(22)
        for beta in (0.25, 0.5):
            v = make_logconcave_input(rng, beta, grid)
            assert certify(v, "concave", beta).passed

    def test_logconcave_rejects_large_beta(self, grid):
        with pytest.raises(ParameterError):
            make_logconcave_input(np.random.default_rng(0), 2.0, grid)

    def test_talagrand_inputs_certified(self, grid):
        rng = np.random.default_rng(23)
        v = make_talagrand_input(rng, 2.0, grid)
        assert certify(v, "convex", 2.0).passed
        assert certify(v, "concave", 1e18, tol=1e-6).passed

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("make,beta", [(make_logconcave_input, 0.5),
                                           (make_talagrand_input, 2.0)])
    def test_bumped_gaussian_derivatives(self, grid, make, beta, seed):
        # the closed-form (log v)' and (log v)'' against a Richardson
        # extrapolation of central differences of the field's own log
        # closure (error ~1e-9 at h = 0.02; a wrong bump term is ~eps)
        v = make(np.random.default_rng(seed), beta, grid)
        x, h = np.linspace(-6.0, 6.0, 241), 0.02

        def d1(k):
            return (v.log(x + k) - v.log(x - k)) / (2 * k)

        def d2(k):
            return (v.log(x + k) - 2 * v.log(x) + v.log(x - k)) / k**2

        for exact, diff in ((v.dlog, d1), (v.analytic_d2log, d2)):
            richardson = (4 * diff(h / 2) - diff(h)) / 3
            np.testing.assert_allclose(exact(x), richardson, rtol=0,
                                       atol=1e-8)
