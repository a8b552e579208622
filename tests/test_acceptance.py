"""End-to-end acceptance gate.

Each test here verifies one headline guarantee of the package with genuinely
independent numerics (nested Gauss-Hermite quadrature, closed forms, seeded
random suites) and records the tolerance it enforces.
"""
import time

import numpy as np
import pytest

from gauss_deficit.families import (LogQuad, field_from_family,
                                    gaussian_field, gaussian_ratio_field)
from gauss_deficit.flows import (MeasureSpec, certify, fp_class_member,
                                 fp_evolve, preservation_trace)
from gauss_deficit.functionals import (entropy_fisher, q_functional,
                                       sharp_constant)
from gauss_deficit.hamilton_jacobi import (HJField, beta_of_a,
                                           dual_talagrand_check, hj_hc_check,
                                           quadratic_datum)
from gauss_deficit.inequalities import (brascamp_lieb_check,
                                        counterexample_mixture,
                                        counterexample_superharmonic,
                                        els_eigen_check, hc_check, lsi_check,
                                        make_fp_input, make_logconcave_input,
                                        make_talagrand_input, matrix_check)
from gauss_deficit.numerics import (Grid1D, GridField, default_grid,
                                    gauss_hermite_rule)
from gauss_deficit.semigroups import ExponentTriple
from gauss_deficit.transport import (PotentialSpec, brenier_1d,
                                     caffarelli_check, general_lsi_deficit,
                                     talagrand_deficit, w2)

PQ_GRID = [(2.0, 4.0), (1.5, 3.0), (3.0, 6.0)]
BETA_GRID = [0.25, 0.5, 2.0, 4.0]


def hc_ratio_by_quadrature(beta, p, q, rule):
    """||P_s[(g_b/g)^{1/p}]||_q / (int g_b/g dg)^{1/p} with the OU average
    done by an inner quadrature (no closed-form shortcuts)."""
    triple = ExponentTriple.from_pq(p, q)
    fam = LogQuad.gaussian_ratio(beta) ** (1.0 / p)
    z, w = rule.nodes, rule.weights
    e = float(np.exp(-triple.s))
    sig = float(np.sqrt(1.0 - e * e))
    psf = np.exp(fam.log_at(e * z[:, None] + sig * z[None, :])) @ w
    norm_q = float((psf ** q) @ w) ** (1.0 / q)
    mass = float(np.exp(fam.log_at(z) * p) @ w)  # = int g_b/g dg
    return norm_q / mass ** (1.0 / p)


def lsi_value(beta, n, rule):
    """Ent - I/2 of the n-fold tensor of gamma_beta/gamma (n = 1, 2)."""
    if n == 1:
        ef = entropy_fisher(gaussian_ratio_field(default_grid(), beta), rule)
        return ef.entropy - 0.5 * ef.fisher
    g = gaussian_field(default_grid(), beta)
    params = matrix_check(g, g, np.diag([beta, beta]), which="lsi",
                          rule=rule).params
    return params["entropy"] - 0.5 * params["fisher"]


class TestCriterion1HCRatio:
    def test_gaussian_extremiser_ratio(self, rule):
        start = time.perf_counter()
        for p, q in PQ_GRID:
            for beta in BETA_GRID:
                got = hc_ratio_by_quadrature(beta, p, q, rule)
                want = sharp_constant("hc_ratio", beta=beta,
                                      triple=ExponentTriple.from_pq(p, q)
                                      ).value
                assert got == pytest.approx(want, abs=1e-7), (p, q, beta)
        assert time.perf_counter() - start < 5.0


class TestCriterion2LSI:
    def test_gaussian_lsi_value_tensorizes(self, rule):
        start = time.perf_counter()
        for beta in BETA_GRID:
            want = -0.5 * (np.log(beta) - 1.0 + 1.0 / beta)
            assert lsi_value(beta, 1, rule) == pytest.approx(want, abs=1e-7)
            assert lsi_value(beta, 2, gauss_hermite_rule(48)) == \
                pytest.approx(2 * want, abs=1e-7)
        assert time.perf_counter() - start < 5.0


class TestCriterion3PropertySuite:
    def test_random_inputs_nonnegative_slack(self, grid, rule):
        start = time.perf_counter()
        triple = ExponentTriple.from_pq(2.0, 4.0)
        cases = ([(b, make_fp_input) for b in (1.5, 2.0, 4.0)],
                 [(b, make_logconcave_input) for b in (0.25, 0.5)])
        for group, total in zip(cases, (50, 50)):
            rng = np.random.default_rng(100)
            for i in range(total):
                beta, gen = group[i % len(group)]
                v = gen(rng, beta, grid)
                for check in (lambda: hc_check(v, beta, triple, rule),
                              lambda: lsi_check(v, beta, rule)):
                    r = check()
                    assert r.asserted, (beta, i)
                    assert r.slack >= -1e-5, (beta, i, r.slack)
        assert time.perf_counter() - start < 60.0


class TestCriterion4Talagrand:
    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_zero_slack_at_gaussian(self, beta, grid):
        r = talagrand_deficit(gaussian_field(grid, beta), beta)
        assert r.asserted
        assert r.slack == pytest.approx(0, abs=1e-6)

    def test_admissible_inputs_nonnegative_slack(self, grid):
        rng = np.random.default_rng(200)
        betas = (0.5, 1.5, 2.0, 4.0)
        for i in range(50):
            beta = betas[i % len(betas)]
            v = make_talagrand_input(rng, beta, grid)
            r = talagrand_deficit(v, beta)
            assert r.asserted, (beta, i)
            assert r.slack >= -1e-5, (beta, i, r.slack)

    def test_improves_small_covariance_bound(self):
        # 1 + log(beta)/2 - sqrt(beta) < -(2(1-beta)+(beta+1)log beta)
        #                                  / (2(beta-1)) for beta < 1
        for beta in (0.2, 0.5, 0.9):
            ours = sharp_constant("talagrand_gauss", beta=beta).value
            other = sharp_constant("mikulincer", beta=beta).value
            assert ours < other


class TestCriterion5FlowMonotonicity:
    TIMES = np.geomspace(1e-3, 1.0, 8)

    def _assert_monotone(self, grid, rule, beta, triple, seed):
        rng = np.random.default_rng(seed)
        for i in range(20):
            v0 = make_fp_input(rng, beta, grid)
            qs = [q_functional(v0, beta, triple, t, rule)
                  for t in self.TIMES]
            scale = max(abs(q) for q in qs) + 1e-30
            for a, b in zip(qs, qs[1:]):
                assert b - a >= -1e-5 * scale, (i, a, b)

    def test_forward_regime(self, grid, rule):
        self._assert_monotone(grid, rule, 2.0,
                              ExponentTriple.from_pq(2.0, 4.0), 300)

    def test_reverse_regime(self, grid, rule):
        # q < p < 0 with beta > 1
        self._assert_monotone(grid, rule, 2.0,
                              ExponentTriple.from_pq(-2.0, -4.0), 301)


class TestCriterion6Preservation:
    def test_certificates_preserved_along_flow(self, grid):
        rng = np.random.default_rng(400)
        times = (0.05, 0.2, 0.5, 1.0)
        for beta, kind in ((2.0, "convex"), (0.5, "concave")):
            gen = make_fp_input if beta >= 1 else make_logconcave_input
            for i in range(20):
                v0 = gen(rng, beta, grid)
                margins, universal = preservation_trace(v0, beta, kind,
                                                        times)
                assert min(margins) >= -1e-4, (beta, i)
                assert min(universal) >= -1e-4, (beta, i)

    def test_universal_bound_from_rough_start(self, grid):
        # (log v_t)'' >= -1/((1-e^{-2t}) beta) for any initial measure
        rng = np.random.default_rng(401)
        beta = 2.0
        for i in range(5):
            pts = rng.uniform(-3, 3, 4)
            mu = MeasureSpec(pts, np.full(4, 0.25))
            for t in (0.05, 0.2, 1.0):
                vt = fp_evolve(mu, beta, t, grid=grid)
                bt = (1.0 - np.exp(-2.0 * t)) * beta
                assert certify(vt, "convex", bt).passed, (i, t)


class TestCriterion7Counterexamples:
    def test_mixture_large_covariance_violates_els(self, grid):
        r = counterexample_mixture(4.0)
        assert r.params["covariance"] == pytest.approx(17.0)
        assert r.params["covariance"] > 16.0
        assert r.slack < 0
        assert not r.hypotheses_pass  # subharmonicity certificate fails

    def test_superharmonicity_not_preserved(self):
        # f = e^{x1 x2}: Delta log f = 0 but Delta log P_t f > 0 inside
        for t in (0.1, 0.5):
            tr = counterexample_superharmonic(t)
            assert tr.delta_log_f == 0.0
            assert tr.grid_min > 0.0


class TestCriterion8Applications:
    def test_hj_hc_extremiser_and_perturbations(self, grid, rule):
        a, tau, beta = 1.0, 1.0, 2.0
        ext = quadratic_datum(a, beta_of_a(a, beta), grid)
        r = hj_hc_check(ext, a, tau, beta, rule)
        assert r.asserted and abs(r.slack) <= 1e-4
        rng = np.random.default_rng(500)
        for _ in range(5):
            c = float(rng.uniform(0.0, 0.05))
            m = float(rng.uniform(-1.0, 1.0))
            vals = ext.f.values + c * np.log(np.cosh(grid.points - m))
            pert = HJField.from_field(GridField(grid, vals))
            rp = hj_hc_check(pert, a, tau, beta, rule)
            assert rp.asserted and rp.slack >= -1e-4

    def test_dual_talagrand_extremiser_and_perturbations(self, grid, rule):
        a0, tau, beta = 0.02, 1.0, 2.0
        ext = quadratic_datum(a0, beta_of_a(a0, beta), grid)
        r = dual_talagrand_check(ext, tau, beta, rule)
        assert r.asserted and abs(r.slack) <= 1e-4
        rng = np.random.default_rng(501)
        for _ in range(5):
            c = float(rng.uniform(0.0, 0.03))
            m = float(rng.uniform(-1.0, 1.0))
            vals = ext.f.values + c * np.log(np.cosh(grid.points - m))
            pert = HJField.from_field(GridField(grid, vals))
            rp = dual_talagrand_check(pert, tau, beta, rule)
            assert rp.asserted and rp.slack >= -1e-4

    def test_t_constant_value(self):
        got = sharp_constant("hj_t", tau=1.0, beta=2.0).value
        assert got == pytest.approx((np.exp(-1.0) * 2.25) ** 0.25,
                                    abs=1e-10)

    def test_beckner_b_quadrature_cross_check(self, rule):
        # B = int |P_s[(g_b/g)^{1/p}]|^2 dg with s = -log(p-1)/2,
        # evaluated by nested quadrature
        z, w = rule.nodes, rule.weights
        for beta in BETA_GRID:
            for p in (1.2, 1.5, 1.8):
                s = -0.5 * np.log(p - 1.0)
                fam = LogQuad.gaussian_ratio(beta) ** (1.0 / p)
                e = np.exp(-s)
                sig = np.sqrt(1.0 - e * e)
                psf = np.exp(fam.log_at(e * z[:, None]
                                        + sig * z[None, :])) @ w
                got = float((psf ** 2) @ w)
                want = sharp_constant("beckner_b", p=p, beta=beta).value
                assert got == pytest.approx(want, abs=1e-7), (beta, p)

    def test_beckner_b_derivative_recovers_lsi(self):
        # d/dp B(p, beta) at p = 2 equals D_n(beta)/2
        for beta in (0.5, 2.0, 4.0):
            h = 1e-5
            fd = (1.0 - sharp_constant("beckner_b", p=2.0 - h,
                                       beta=beta).value) / h
            dn = sharp_constant("dn", beta=beta).value
            assert fd == pytest.approx(0.5 * dn, abs=1e-3)

    def test_brascamp_lieb_scaling_and_classical_reduction(self, grid):
        # the exponent scaling identity holds exactly for every consistent
        # triple, and at beta = 1 the two-function bound is attained
        for p, q in PQ_GRID:
            t = ExponentTriple.from_pq(p, q)
            c1, c2 = 1.0 / t.p, 1.0 - 1.0 / t.q
            e2s = np.exp(-2.0 * t.s)
            assert abs(c1 + c2 - 1.0 - (1.0 - e2s) * c1 * c2) < 1e-14
        t = ExponentTriple.from_pq(2.0, 4.0)
        r = brascamp_lieb_check(gaussian_field(grid, 1.0),
                                gaussian_field(grid, 1.0), t, 1.0)
        assert r.asserted
        assert r.slack == pytest.approx(0, abs=1e-12)


class TestCriterion9Transport:
    def test_w2_gaussian_oracle(self, grid):
        for beta in BETA_GRID:
            got = w2(gaussian_field(grid, 1.0),
                     gaussian_field(grid, beta))
            assert got == pytest.approx(abs(1.0 - np.sqrt(beta)), abs=1e-6)

    def test_monge_ampere_residual(self, grid):
        rng = np.random.default_rng(600)
        for _ in range(5):
            v = make_talagrand_input(rng, 2.0, grid)
            T = brenier_1d(v, gaussian_field(grid, 1.0))
            assert T.monge_ampere_residual() <= 1e-4

    def test_caffarelli_bound_on_certified_inputs(self, grid):
        rng = np.random.default_rng(601)
        for beta in (0.25, 0.5):
            for _ in range(5):
                v = make_logconcave_input(rng, beta, grid)
                slope = caffarelli_check(v, beta)
                assert slope <= np.sqrt(beta) + 1e-4

    def test_general_potential_lsi_suite(self, grid):
        rng = np.random.default_rng(602)
        x = grid.points
        for _ in range(10):
            omega = float(rng.uniform(0.8, 1.5))
            eps = float(rng.uniform(0.0, 0.05))
            V = GridField(grid, 0.5 * omega * x * x
                          + eps * np.log(np.cosh(x)))
            pot = PotentialSpec(V, K=omega, L=omega + eps)
            beta = 2.0
            beta_v = beta * pot.L / pot.K * float(rng.uniform(1.0, 1.3))
            vals, _ = pot.density(beta_v)
            r = general_lsi_deficit(GridField(grid, vals), pot, beta)
            assert r.asserted
            assert r.slack >= -1e-4


class TestCriterion10Convergence:
    def test_quadrature_floor(self):
        # doubling the Gauss-Hermite node count leaves the criterion-1/2
        # values unchanged to 1e-9 (both rules already integrate the
        # closed-form integrands exactly)
        r1, r2 = gauss_hermite_rule(96), gauss_hermite_rule(192)
        for p, q in PQ_GRID:
            for beta in BETA_GRID:
                a = hc_ratio_by_quadrature(beta, p, q, r1)
                b = hc_ratio_by_quadrature(beta, p, q, r2)
                assert abs(a - b) < 1e-9, (p, q, beta)
        for beta in BETA_GRID:
            assert abs(lsi_value(beta, 1, r1) - lsi_value(beta, 1, r2)) \
                < 1e-9

    def test_grid_resolution_floor(self):
        # doubling the grid resolution leaves the LSI check value unchanged
        rule = gauss_hermite_rule(96)
        for beta in (0.5, 2.0):
            vals = []
            for n in (4097, 8193):
                f = gaussian_ratio_field(Grid1D(-12.0, 12.0, n), beta)
                ef = entropy_fisher(f, rule)
                vals.append(ef.entropy - 0.5 * ef.fisher)
            assert abs(vals[0] - vals[1]) < 1e-9
