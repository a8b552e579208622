import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gauss_deficit.families import (field_from_family, gaussian_field,
                                    symmetric_mixture)
from gauss_deficit.functionals import entropy_fisher
from gauss_deficit.inequalities import make_talagrand_input, matrix_check
from gauss_deficit.numerics import (Grid1D, GridField, ParameterError,
                                    default_grid)
from gauss_deficit.transport import (DensitySpec, PotentialSpec, brenier_1d,
                                     caffarelli_check, general_lsi_deficit,
                                     relative_entropy_gauss,
                                     talagrand_deficit, w2)


def gauss_spec(beta, grid, mean=0.0):
    return DensitySpec.gaussian(beta, grid, mean)


class TestBrenier:
    def test_gaussian_to_gaussian_map_is_linear(self, grid):
        T = brenier_1d(gauss_spec(1.0, grid), gauss_spec(4.0, grid))
        x = grid.points
        mask = np.abs(x) <= 6
        np.testing.assert_allclose(T.map_values[mask], 2.0 * x[mask],
                                   atol=1e-8)

    def test_monge_ampere_residual_gaussian(self, grid):
        T = brenier_1d(gauss_spec(1.0, grid), gauss_spec(2.0, grid))
        assert T.monge_ampere_residual() < 1e-10

    def test_monge_ampere_residual_mixture(self, grid):
        mu = DensitySpec.from_family(symmetric_mixture(1.5, 1.0), grid)
        T = brenier_1d(mu, gauss_spec(1.0, grid))
        assert T.monge_ampere_residual() <= 1e-4 * np.max(mu.field.values)

    def test_pushforward_moments(self, grid):
        # int h(T(x)) dmu = int h dnu for h in {x, x^2, |x|}
        mu = gauss_spec(1.0, grid)
        nu = DensitySpec.from_family(symmetric_mixture(1.0, 1.0), grid)
        T = brenier_1d(mu, nu)
        x = grid.points
        h = grid.spacing
        for fn, expect in ((lambda t: t, 0.0),
                           (lambda t: t * t, 2.0),  # 1 + a^2
                           (np.abs, None)):
            got = np.trapezoid(fn(T.map_values) * mu.field.values, dx=h)
            want = (expect if expect is not None else
                    np.trapezoid(fn(x) * nu.field.values, dx=h))
            assert got == pytest.approx(want, abs=1e-5)


class TestW2:
    @pytest.mark.parametrize("beta", [0.25, 0.5, 2.0, 4.0])
    def test_gaussian_oracle(self, beta, grid):
        # W2(gamma, gamma_beta) = |1 - sqrt(beta)|
        got = w2(gauss_spec(1.0, grid), gauss_spec(beta, grid))
        assert got == pytest.approx(abs(1 - np.sqrt(beta)), abs=1e-6)

    def test_translation(self, grid):
        got = w2(gauss_spec(1.0, grid), gauss_spec(1.0, grid, mean=1.5))
        assert got == pytest.approx(1.5, abs=1e-6)

    def test_triangle_inequality(self, grid):
        a = gauss_spec(1.0, grid)
        b = DensitySpec.from_family(symmetric_mixture(1.0, 1.0), grid)
        c = gauss_spec(2.0, grid, mean=0.5)
        assert w2(a, c) <= w2(a, b) + w2(b, c) + 1e-6

    def test_classical_talagrand_random_inputs(self, grid):
        # (1/2) W2(gamma, v)^2 <= Ent_gamma(v/gamma)
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = float(rng.uniform(0.0, 2.0))
            var = float(rng.uniform(0.5, 1.5))
            v = DensitySpec.from_family(symmetric_mixture(a, var), grid)
            cost = 0.5 * w2(gauss_spec(1.0, grid), v) ** 2
            rel = GridField.from_callable(
                grid,
                lambda x: v.field(x) / np.exp(-0.5 * x * x)
                * np.sqrt(2 * np.pi),
                log_fn=lambda x: v.field.log(x) + 0.5 * x * x
                + 0.5 * np.log(2 * np.pi),
                dlog_fn=lambda x: v.field.dlog(x) + x)
            ent = entropy_fisher(rel).entropy
            assert cost <= ent + 1e-5


class TestRelativeEntropy:
    def test_gaussian_closed_form(self, grid):
        beta = 2.0
        v = gaussian_field(grid, beta)
        # Ent_gamma(gamma_beta/gamma) = (1/2)(beta - 1 - log beta)
        got = relative_entropy_gauss(v)
        assert got == pytest.approx(0.5 * (beta - 1 - np.log(beta)),
                                    abs=1e-10)


class TestTalagrandDeficit:
    @pytest.mark.parametrize("beta", [0.5, 2.0, 4.0])
    def test_equality_at_gamma_beta(self, beta, grid):
        r = talagrand_deficit(gauss_spec(beta, grid), beta)
        assert r.asserted
        assert r.slack == pytest.approx(0, abs=1e-6)

    def test_centering_invariance(self, grid):
        # a shifted gamma_beta still attains equality (mean is removed)
        r = talagrand_deficit(gauss_spec(2.0, grid, mean=0.8), 2.0)
        assert r.slack == pytest.approx(0, abs=1e-6)

    def test_admissible_inputs_positive_slack(self, grid):
        rng = np.random.default_rng(11)
        for _ in range(3):
            v = DensitySpec.from_field(make_talagrand_input(rng, 2.0, grid))
            r = talagrand_deficit(v, 2.0)
            assert r.asserted and r.slack >= -1e-5

    def test_mikulincer_reported_for_small_beta(self, grid):
        r = talagrand_deficit(gauss_spec(0.5, grid), 0.5)
        assert "mikulincer_bound" in r.params
        assert r.sharp_constant < r.params["mikulincer_bound"]

    def test_non_log_concave_input_not_asserted(self, grid):
        v = DensitySpec.from_family(symmetric_mixture(2.0, 1.0), grid)
        r = talagrand_deficit(v, 5.0)
        assert not r.asserted


class TestCaffarelli:
    def test_gaussian_slope(self, grid):
        # T from gamma into gamma_beta has slope sqrt(beta); the contraction
        # bound applies when the target is at least as log-concave (beta<=1)
        for beta in (0.25, 0.5, 1.0):
            got = caffarelli_check(gauss_spec(beta, grid), beta)
            assert got == pytest.approx(np.sqrt(beta), abs=1e-5)

    def test_rejects_non_log_concave_target(self, grid):
        v = DensitySpec.from_family(symmetric_mixture(2.0, 1.0), grid)
        with pytest.raises(ParameterError):
            caffarelli_check(v, 5.0)


class TestCoupling2D:
    """W_2^2(gamma_2, v1 (x) v2) as matrix_check's talagrand variant takes it."""

    @staticmethod
    def _w2_sq(grid, b1, b2):
        v1, v2 = gaussian_field(grid, b1), gaussian_field(grid, b2)
        return matrix_check(v1, v2, np.diag([b1, b2]),
                            which="talagrand").params["w2_sq"]

    def test_product_gaussian(self, grid):
        b1, b2 = 2.0, 0.5
        got = self._w2_sq(grid, b1, b2)
        expect = (1 - np.sqrt(b1)) ** 2 + (1 - np.sqrt(b2)) ** 2
        assert got == pytest.approx(expect, abs=1e-4)

    @pytest.mark.parametrize("b1, b2", [(2.0, 0.5), (3.0, 1.5), (0.4, 0.7)])
    def test_product_gaussian_exact(self, grid, b1, b2):
        got = self._w2_sq(grid, b1, b2)
        expect = (1 - np.sqrt(b1)) ** 2 + (1 - np.sqrt(b2)) ** 2
        assert got == pytest.approx(expect, abs=1e-9)


class TestGeneralLSI:
    @staticmethod
    def _potential(grid, omega=1.0, eps=0.0):
        x = grid.points
        V = GridField(grid, 0.5 * omega * x * x + eps * np.log(np.cosh(x)))
        return PotentialSpec(V, K=omega, L=omega + eps)

    def test_equality_at_reference_quadratic(self, grid):
        pot = self._potential(grid)
        vals, _ = pot.density(2.0)
        r = general_lsi_deficit(DensitySpec(GridField(grid, vals)), pot, 2.0)
        assert r.asserted
        assert r.slack == pytest.approx(0, abs=1e-9)

    def test_perturbed_potential_positive_slack(self, grid):
        pot = self._potential(grid, omega=1.0, eps=0.03)
        beta = 2.0
        beta_v = beta * pot.L / pot.K * 1.1
        vals, _ = pot.density(beta_v)
        r = general_lsi_deficit(DensitySpec(GridField(grid, vals)), pot, beta)
        assert r.asserted
        assert r.slack >= -1e-4

    def test_asymmetric_input_not_asserted(self, grid):
        pot = self._potential(grid)
        x = grid.points
        raw = np.exp(-0.3 * (x - 0.5) ** 2)
        raw /= np.trapezoid(raw, dx=grid.spacing)
        r = general_lsi_deficit(DensitySpec(GridField(grid, raw)), pot, 2.0)
        assert not r.asserted

    def test_requires_beta_above_one(self, grid):
        pot = self._potential(grid)
        vals, _ = pot.density(1.0)
        with pytest.raises(ParameterError):
            general_lsi_deficit(DensitySpec(GridField(grid, vals)), pot, 0.9)
