import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gauss_deficit.families import (LogQuad, field_from_family,
                                    gaussian_field, symmetric_mixture)
from gauss_deficit.flows import (certify_matrix, curvature,
                                 semi_log_concave, semi_log_convex)
from gauss_deficit.functionals import sharp_constant, tilt
from gauss_deficit.inequalities import (beckner_check,
                                        brascamp_lieb_check,
                                        counterexample_mixture,
                                        counterexample_superharmonic,
                                        els_eigen_check, hc_check,
                                        lsi_check, make_fp_input,
                                        make_logconcave_input,
                                        make_talagrand_input, matrix_check,
                                        poincare_check,
                                        sample_reverse_triple)
from gauss_deficit.numerics import (Grid1D, GridField, ParameterError,
                                    default_grid, gauss_hermite_rule)
from gauss_deficit.semigroups import (ExponentTriple,
                                      InadmissibleExponentError,
                                      _ou_closures_1d)


def log_ptf_bilinear(t: float):
    """Exact log P_t[e^{x1 x2}]: complete-the-square in both kernel variables.

    With e = e^{-t}, sig^2 = 1 - e^{-2t}, c = sig^2:
    log P_t f = e^2 x1 x2 + [a^2 (1-c^2) + (b + a c)^2] / (2 (1-c^2))
                - (1/2) log(1-c^2),   a = sig e x2, b = sig e x1.
    """
    e = float(np.exp(-t))
    sig = float(np.sqrt(1.0 - e * e))
    c = sig * sig

    def log_fn(x1, x2):
        a = sig * e * x2
        b = sig * e * x1
        return (e * e * x1 * x2 + 0.5 * a * a
                + (b + a * c) ** 2 / (2.0 * (1.0 - c * c))
                - 0.5 * np.log(1.0 - c * c))

    return log_fn


def ratio(beta):
    """gamma_beta / gamma as a LogQuad."""
    return tilt(LogQuad.gaussian(beta), 1.0, 1.0).tag


def sqrt_ratio_field(grid, beta, power):
    """f = (gamma_beta/gamma)^{1/power} with exact closures."""
    return field_from_family(grid, ratio(beta) ** (1.0 / power))


class TestHC:
    def test_equality_at_gamma_beta(self, grid, rule):
        t = ExponentTriple(2.0, 4.0)
        for beta in (0.5, 2.0):
            r = hc_check(gaussian_field(grid, beta), beta, t, rule)
            assert r.asserted
            assert r.slack == pytest.approx(0, abs=1e-12)

    def test_classical_at_beta_one(self, grid, rule):
        # beta = 1 places no hypothesis and must hold for arbitrary inputs
        t = ExponentTriple(2.0, 4.0)
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
        t = ExponentTriple(2.0, 4.0)
        v = field_from_family(grid, symmetric_mixture(3.0, 0.5))
        r = hc_check(v, 2.0, t, rule)
        assert not r.asserted

    def test_ratio_non_increasing_in_beta(self):
        t = ExponentTriple(2.0, 4.0)
        vals = [sharp_constant("hc_ratio", beta=b, triple=t)
                for b in (1.0, 1.5, 2.0, 3.0, 5.0)]
        assert vals[0] == pytest.approx(1.0, abs=1e-14)
        assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_fp_inputs_positive_slack(self, grid, rule):
        t = ExponentTriple(1.5, 3.0)
        rng = np.random.default_rng(2)
        for _ in range(3):
            v = make_fp_input(rng, 2.0, grid)
            r = hc_check(v, 2.0, t, rule)
            assert r.asserted and r.slack >= -1e-5


class TestReverseHC:
    def test_equality_at_gamma_beta(self, grid, rule):
        t = ExponentTriple(0.5, 0.25)
        r = hc_check(gaussian_field(grid, 2.0), 2.0, t, rule)
        assert r.direction == "ge"
        assert r.asserted
        assert r.slack == pytest.approx(0, abs=1e-12)

    def test_excluded_exponents_rejected(self, grid, rule):
        v = gaussian_field(grid, 2.0)
        with pytest.raises(InadmissibleExponentError):
            # p = 1 - e^{-2s} is the excluded value
            s = 0.5 * np.log(4.0)
            p = 1.0 - np.exp(-2 * s)
            t = ExponentTriple(p, 1.0 + (p - 1.0) * np.exp(2 * s))
            hc_check(v, 2.0, t, rule)

    def test_opposite_sign_needs_concave(self, grid, rule):
        t = ExponentTriple(0.5, -1.0)
        # concave hypothesis at beta < 1: the log-concave generator passes
        rng = np.random.default_rng(4)
        v = make_logconcave_input(rng, 0.5, grid)
        r = hc_check(v, 0.5, t, rule)
        assert r.asserted and r.slack >= -1e-5

    def test_same_sign_below_beta_one_is_not_asserted(self, grid, rule):
        # pq > 0 needs beta > 1: at beta = 0.5 its margin is beta - 1
        v = make_logconcave_input(np.random.default_rng(4), 0.5, grid)
        r = hc_check(v, 0.5, ExponentTriple(0.5, 0.25), rule)
        regime = r.hypotheses[0]
        assert (regime.name, regime.margin) == ("beta>1-for-pq>0", -0.5)
        assert not regime.passed and not r.asserted

    def test_regime_picks_direction_and_name(self, grid, rule):
        v = gaussian_field(grid, 2.0)
        forward = hc_check(v, 2.0, ExponentTriple(2.0, 4.0), rule)
        reverse = hc_check(v, 2.0, ExponentTriple(0.5, 0.25), rule)
        assert (forward.direction, forward.inequality) == (
            "le", "hypercontractivity")
        assert (reverse.direction, reverse.inequality) == (
            "ge", "reverse-hypercontractivity")
        with pytest.raises(InadmissibleExponentError):
            # p = 0.5 < 1 < q = 2 lies in neither regime: no triple admits it
            hc_check(v, 2.0, ExponentTriple(0.5, 2.0), rule)

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
            sharp_constant("lsi_gauss", beta=beta), abs=1e-14)

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
        r = matrix_check(v1, v2, B, "lsi", rule)
        assert r.asserted
        assert r.slack == pytest.approx(0, abs=1e-9)

    def test_mixed_eigenvalues_concave_side(self, grid):
        rule = gauss_hermite_rule(48)
        B = np.diag([0.5, 0.25])
        v1, v2 = self._factors(grid, 0.5, 0.25)
        r = matrix_check(v1, v2, B, "lsi", rule)
        assert r.asserted
        assert r.slack == pytest.approx(0, abs=1e-8)

    def test_triple_only_for_hc(self, grid, rule):
        g = gaussian_field(grid, 2.0)
        B = np.diag([2.0, 2.0])
        triple = ExponentTriple(2.0, 4.0)
        for which in ("lsi", "talagrand"):
            assert matrix_check(g, g, B, which, rule).asserted
        with pytest.raises(ParameterError):
            matrix_check(g, g, B, "hc", rule)
        with pytest.raises(ParameterError):
            matrix_check(g, g, B, "lsi", rule, triple)
        assert matrix_check(g, g, B, "hc", rule, triple).asserted

    def test_requires_2d(self, grid, rule):
        # B must be the 2 x 2 matrix of the product on R^2
        g = gaussian_field(grid, 2.0)
        with pytest.raises(ParameterError):
            matrix_check(g, g, np.diag([2.0]), "lsi", rule)

    def test_requires_symmetric(self, grid, rule):
        # eigvalsh reads B's lower triangle only: the upper-triangular B
        # would be checked as diag(2, 3), the lower one refused as not
        # positive definite
        g = gaussian_field(grid, 2.0)
        for B in ([[2.0, 5.0], [0.0, 3.0]], [[2.0, 0.0], [5.0, 3.0]]):
            with pytest.raises(ParameterError, match="symmetric"):
                matrix_check(g, g, np.array(B), "lsi", rule)
            with pytest.raises(ParameterError, match="symmetric"):
                certify_matrix(g, g, np.array(B), "convex")
        # a product A A^T is symmetric only up to rounding
        A = np.random.default_rng(2).normal(size=(2, 2))
        B = A @ A.T + 0.5 * np.eye(2)
        assert matrix_check(g, g, B, "lsi", rule).params["eigenvalues"] \
            == pytest.approx(np.linalg.eigvalsh(B), rel=1e-15)
        certify_matrix(g, g, B, "convex")

    def test_requires_finite(self, grid, rule):
        # a NaN fails every comparison, so the symmetry test alone lets a
        # NaN B through to NaN eigenvalues and margins
        g = gaussian_field(grid, 2.0)
        nan, inf = np.nan, np.inf
        for B in (np.full((2, 2), nan), [[2.0, inf], [inf, 3.0]],
                  [[nan, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, -inf]]):
            with pytest.raises(ParameterError, match="finite"):
                matrix_check(g, g, np.array(B), "lsi", rule)
            with pytest.raises(ParameterError, match="finite"):
                certify_matrix(g, g, np.array(B), "convex")


class TestMatrixHC:
    """The left side of matrix_check, a product of 1-D left sides, against
    ||P_s[(v/gamma)^{1/p}]||_{L^q(gamma_2)} for v = v1 (x) v2 taken on R^2
    with the tensor Gauss-Hermite rule, inner and outer."""

    triple = ExponentTriple(2.0, 4.0)

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
            f = field_from_family(grid, ratio(beta) ** 0.5)
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

    @pytest.mark.parametrize("check", ["poincare", "beckner"])
    def test_one_read_of_f_at_the_nodes(self, grid, rule, check):
        # f at the rule's nodes is read once, for its integrals and for
        # int |f'|^2 dgamma alike
        exact = sqrt_ratio_field(grid, 2.0, 2.0 if check == "poincare"
                                 else 1.5)
        at_nodes = []

        def log(x):
            at_nodes.append(np.array_equal(x, rule.nodes))
            return exact.analytic_log(x)

        f = GridField.from_callable(grid, log_fn=log,
                                    dlog_fn=exact.analytic_dlog,
                                    d2log_fn=exact.analytic_d2log)
        at_nodes.clear()
        if check == "poincare":
            poincare_check(f, 2.0, rule)
        else:
            beckner_check(f, 1.5, 2.0, rule)
        assert sum(at_nodes) == 1


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

        def d2log(x):  # ((log v)'' + 1) / p
            return (v.analytic_d2log(x) + 1.0) / p

        closure = GridField.from_callable(
            grid, lambda x: np.exp((v.log(x) + 0.5 * x * x
                                    + 0.5 * np.log(2 * np.pi)) / p),
            dlog_fn=dlog, d2log_fn=d2log)
        nodal = GridField.from_callable(
            grid, lambda x: np.interp(x, grid.points, closure.values,
                                      left=0.0, right=0.0),
            dlog_fn=dlog, d2log_fn=d2log)
        for f in (closure, nodal):
            r = beckner_check(f, p, 2.0, rule)
            fz = np.asarray(f(z), float)
            psf = np.exp(_ou_closures_1d(f.log, s, rule)[0](z))
            want = float((fz * fz) @ w) - float((psf ** 2) @ w)
            assert r.params["smoothing_lhs"] == pytest.approx(
                want, rel=1e-12, abs=1e-12)

    def test_b_const_derivative_matches_dn(self):
        # d/dp B(p, beta) at p = 2 equals D_n(beta)/2; B(2, beta) = 1.  The
        # Richardson extrapolation of the one-sided quotients at h and 2h
        # errs by O(h^2), measured at most 5.2e-10 relative
        h = 1e-5

        def quotient(k, beta):
            return (1.0 - sharp_constant("beckner_b", p=2.0 - k,
                                         beta=beta)) / k

        for beta in (0.25, 0.5, 2.0, 4.0):
            richardson = 2.0 * quotient(h, beta) - quotient(2.0 * h, beta)
            assert richardson == pytest.approx(
                0.5 * sharp_constant("dn", beta=beta), rel=1e-8), beta


class TestBrascampLieb:
    def test_reverse_concave_case_holds(self, grid, rule):
        # (p, q) = (1/2, -1) gives c1 = c2 = 2: the reversed statement
        t = ExponentTriple(0.5, -1.0)
        f1 = gaussian_field(grid, 0.5)
        f2 = gaussian_field(grid, 1.0)
        r = brascamp_lieb_check(f1, f2, t, 0.5, rule)
        assert r.direction == "ge"
        assert r.asserted and r.slack >= -1e-7

    def test_forward_case_holds(self, grid, rule):
        t = ExponentTriple(2.0, 4.0)
        f1 = gaussian_field(grid, 2.0)
        f2 = field_from_family(grid, symmetric_mixture(0.8, 1.0))
        r = brascamp_lieb_check(f1, f2, t, 2.0, rule)
        assert r.direction == "le"
        assert r.asserted and r.slack >= -1e-7


# (p, q) in each regime, q < p < 0 included, |p| and |q| at least 0.05
ADMISSIBLE_PQ = st.one_of(
    st.tuples(st.floats(1.1, 5.0), st.floats(0.1, 5.0)).map(
        lambda t: (t[0], t[0] + t[1])),                  # 1 < p < q
    st.tuples(st.floats(0.2, 0.9), st.floats(0.25, 0.9)).map(
        lambda t: (t[0], t[0] * t[1])),                  # 0 < q < p < 1
    st.tuples(st.floats(-5.0, -0.1), st.floats(0.1, 5.0)).map(
        lambda t: (t[0], t[0] - t[1])),                  # q < p < 0
    st.tuples(st.floats(0.1, 0.9), st.floats(-5.0, -0.1)))  # q < 0 < p < 1

# regime -> (Brascamp-Lieb case, direction, the signs of c1 and c2 there)
BL_CASES = {
    "forward": ("forward", "le", lambda c1, c2: 0 < c1 < 1 and 0 < c2 < 1),
    "reverse-same-sign": ("reverse-mixed", "ge", lambda c1, c2: c1 * c2 < 0),
    "reverse-opposite-sign": ("reverse-concave", "ge",
                              lambda c1, c2: c1 > 1 and c2 > 1),
}


class TestBrascampLiebCases:
    @given(ADMISSIBLE_PQ)
    @settings(max_examples=40, deadline=None)
    def test_scaling_and_case_follow_the_regime(self, rule, pq):
        t = ExponentTriple(*pq)
        c1, c2 = 1.0 / t.p, 1.0 - 1.0 / t.q
        e2s = np.exp(-2.0 * t.s)
        assert abs(c1 + c2 - 1.0 - (1.0 - e2s) * c1 * c2) <= 1e-12
        case, direction, signs = BL_CASES[t.regime]
        assert signs(c1, c2)
        g = gaussian_field(Grid1D(-6.0, 6.0, 129), 1.0)
        r = brascamp_lieb_check(g, g, t, 1.0, rule)
        assert (r.params["case"], r.direction) == (case, direction)


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
    """The Mehler pairing against the trapezoid on the full 4097^2 mesh."""

    @pytest.mark.parametrize("pq, beta, mixture_f2", [
        ((2.0, 4.0), 2.0, True),     # forward
        ((0.5, -1.0), 0.5, False),   # reverse-concave
        ((-1.0, -3.0), 2.0, True),   # reverse-mixed
    ])
    def test_resolved_cases(self, grid, rule, pq, beta, mixture_f2):
        t = ExponentTriple(*pq)
        f1 = gaussian_field(grid, beta)
        f2 = (field_from_family(grid, symmetric_mixture(0.8, 1.0))
              if mixture_f2 else gaussian_field(grid, 1.0))
        r = brascamp_lieb_check(f1, f2, t, beta, rule)
        assert r.lhs == pytest.approx(full_grid_bl_lhs(f1, f2, t),
                                      rel=1e-13, abs=0)

    def test_divergent_case_is_not_asserted(self, grid, rule):
        # reverse-mixed at beta = 0.5: the double integral diverges (the
        # full-mesh trapezoid grows with the window), so no value is pinned;
        # the report is not asserted, as beta > 1 fails (and so does the
        # curvature certificate of gamma_{1/2} at 1)
        t = ExponentTriple(-1.0, -3.0)
        f1 = gaussian_field(grid, 0.5)
        f2 = field_from_family(grid, symmetric_mixture(0.8, 1.0))
        r = brascamp_lieb_check(f1, f2, t, 0.5, rule)
        assert r.params["case"] == "reverse-mixed"
        assert "beta>1" in [h.name for h in r.hypotheses if not h.passed]
        assert not r.asserted

    @pytest.mark.parametrize("pq", [(2.0, 4.0), (0.5, -1.0), (-1.0, -3.0)])
    def test_equality_at_the_standard_gaussian(self, rule, pq):
        # f1 = f2 = gamma at beta = 1 attains the bound in every case, on a
        # window too coarse for a trapezoid to resolve it
        g = gaussian_field(Grid1D(-6.0, 6.0, 129), 1.0)
        r = brascamp_lieb_check(g, g, ExponentTriple(*pq), 1.0, rule)
        assert abs(r.slack) <= 1e-12


class TestCounterexamples:
    def test_mixture_zero_offset(self, grid, rule):
        r = counterexample_mixture(0.0, grid, rule)
        assert r.slack == pytest.approx(0, abs=1e-10)
        assert r.asserted

    def test_mixture_large_offset_fails_certificate(self, grid, rule):
        r = counterexample_mixture(4.0, grid, rule)
        assert r.params["covariance"] == pytest.approx(17.0)
        assert r.slack < 0
        assert not r.asserted  # subharmonicity certificate fails

    def test_superharmonic_laplacian_positive(self):
        # the reported Laplacian is the closed form, and the 5-point
        # stencil (h = 1e-4) of the exact log P_t f on the 257^2 mesh of
        # [-8, 8]^2 reads the same constant at every interior node
        x = Grid1D(-8.0, 8.0, 257).points
        X, Y = np.meshgrid(x, x, indexing="ij")
        h = 1e-4
        for t in (0.1, 0.5):
            r = counterexample_superharmonic(t)
            sig2 = 1.0 - np.exp(-2 * t)
            exact = 2 * sig2 * np.exp(-2 * t) / (1 - sig2 ** 2)
            assert r.params == {"t": t, "delta_log_f": 0.0}
            assert r.lhs == pytest.approx(exact, rel=1e-12)
            assert r.asserted and r.slack == r.lhs > 0
            log_fn = log_ptf_bilinear(t)
            lap = ((log_fn(X + h, Y) + log_fn(X - h, Y) + log_fn(X, Y + h)
                    + log_fn(X, Y - h) - 4.0 * log_fn(X, Y)) / h**2)
            inner = lap[2:-2, 2:-2]
            assert np.min(inner) > 0
            assert abs(np.min(inner) - r.lhs) <= 1e-4
            assert abs(np.max(inner) - r.lhs) <= 1e-4


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
        hc_check(v, 2.0, ExponentTriple(2.0, 4.0), rule)
        hc_check(v, 2.0, sample_reverse_triple(rng, True), rule)
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
            assert semi_log_convex(v, beta, "subharmonic").passed

    def test_logconcave_inputs_certified(self, grid):
        rng = np.random.default_rng(22)
        for beta in (0.25, 0.5):
            v = make_logconcave_input(rng, beta, grid)
            assert semi_log_concave(v, beta, "concave").passed

    def test_logconcave_rejects_large_beta(self, grid):
        with pytest.raises(ParameterError):
            make_logconcave_input(np.random.default_rng(0), 2.0, grid)

    def test_talagrand_inputs_certified(self, grid):
        rng = np.random.default_rng(23)
        v = make_talagrand_input(rng, 2.0, grid)
        assert semi_log_convex(v, 2.0, "convex").passed
        assert curvature(v)[1] <= 1e-6  # log-concave at its 1e-6 gate

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
