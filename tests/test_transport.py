import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gauss_deficit import transport
from gauss_deficit.families import (LogQuad, field_from_family,
                                    gaussian_field, symmetric_mixture)
from gauss_deficit.flows import check_density, covariance
from gauss_deficit.functionals import entropy_fisher
from gauss_deficit.inequalities import (lsi_check, make_talagrand_input,
                                        matrix_check)
from gauss_deficit.numerics import (Grid1D, GridField, ParameterError,
                                    default_grid)
from gauss_deficit.transport import (PotentialSpec, brenier_1d,
                                     caffarelli_check, general_lsi_deficit,
                                     relative_entropy_gauss,
                                     talagrand_deficit, w2)


def gauss_spec(beta, grid, mean=0.0):
    return gaussian_field(grid, beta, mean)


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
        mu = field_from_family(grid, symmetric_mixture(1.5, 1.0))
        T = brenier_1d(mu, gauss_spec(1.0, grid))
        assert T.monge_ampere_residual() <= 1e-4 * np.max(mu.values)

    def test_pushforward_moments(self, grid):
        # int h(T(x)) dmu = int h dnu for h in {x, x^2, |x|}
        mu = gauss_spec(1.0, grid)
        nu = field_from_family(grid, symmetric_mixture(1.0, 1.0))
        T = brenier_1d(mu, nu)
        x = grid.points
        h = grid.spacing
        for fn, expect in ((lambda t: t, 0.0),
                           (lambda t: t * t, 2.0),  # 1 + a^2
                           (np.abs, None)):
            got = np.trapezoid(fn(T.map_values) * mu.values, dx=h)
            want = (expect if expect is not None else
                    np.trapezoid(fn(x) * nu.values, dx=h))
            assert got == pytest.approx(want, abs=1e-5)


def _off_mass(grid):
    """gamma_2 with its mass off by 2e-6."""
    q = LogQuad.gaussian(2.0)
    return GridField.from_callable(grid, lambda x: q(x) * (1.0 + 2e-6))


def _negative(grid):
    """gamma_2 with one node below 0 and its mass kept at 1, read linearly
    between the nodes."""
    vals = gaussian_field(grid, 2.0).values.copy()
    vals[grid.n // 2] = -1e-9
    vals /= np.trapezoid(vals, dx=grid.spacing)
    return GridField.from_callable(
        grid, lambda x: np.interp(x, grid.points, vals, left=0.0, right=0.0))


class TestDensityChecks:
    """Every public transport entry refuses a field that is not a
    probability density on its grid."""

    @pytest.mark.parametrize("make", [_off_mass, _negative])
    def test_refused(self, grid, make):
        bad = make(grid)
        # gamma is e^{-V} for V = x^2/2 up to a constant
        pot = PotentialSpec(gauss_spec(1.0, grid), K=1.0, L=1.0)
        for call in (lambda: talagrand_deficit(bad, 2.0),
                     lambda: w2(gauss_spec(1.0, grid), bad),
                     lambda: w2(bad, gauss_spec(1.0, grid)),
                     lambda: general_lsi_deficit(bad, pot, 2.0)):
            with pytest.raises(ParameterError,
                               match="normalized|nonnegative"):
                call()


    @pytest.mark.parametrize("make", [_off_mass, _negative])
    def test_one_check_for_every_density_reader(self, grid, make):
        # lsi_check, covariance and the transport entries share one check
        bad = make(grid)
        for call in (lambda: lsi_check(bad, 2.0), lambda: covariance(bad),
                     lambda: brenier_1d(bad, gauss_spec(1.0, grid))):
            with pytest.raises(ParameterError) as err:
                call()
            with pytest.raises(ParameterError) as want:
                check_density(bad)
            assert str(err.value) == str(want.value)

    def test_general_lsi_builds_no_cdf(self, grid, monkeypatch):
        def refuse(v):
            raise AssertionError("the CDF was built")

        monkeypatch.setattr(transport, "_density_cdf", refuse)
        pot = PotentialSpec(gauss_spec(1.0, grid), K=1.0, L=1.0)
        assert general_lsi_deficit(gauss_spec(2.0, grid), pot, 2.0).asserted


class WavyCDF(LogQuad):
    """A LogQuad whose CDF carries a ripple, so that it is not monotone."""

    def mass_and_cdf(self):
        mass, cdf = super().mass_and_cdf()
        return mass, lambda x: cdf(x) + 1e-3 * np.sin(8.0 * np.asarray(x))


class TestBrenierMonotonicity:
    def test_non_monotone_map_raises(self, grid):
        q = LogQuad.gaussian(1.0)
        wavy = GridField.from_callable(grid, log_fn=q.log_at, dlog_fn=q.dlog,
                                       d2log_fn=q.d2log,
                                       tag=WavyCDF(q.a, q.b, q.c))
        with pytest.raises(ParameterError, match="non-monotone"):
            brenier_1d(wavy, gauss_spec(2.0, grid))


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
        b = field_from_family(grid, symmetric_mixture(1.0, 1.0))
        c = gauss_spec(2.0, grid, mean=0.5)
        assert w2(a, c) <= w2(a, b) + w2(b, c) + 1e-6

    def test_classical_talagrand_random_inputs(self, grid):
        # (1/2) W2(gamma, v)^2 <= Ent_gamma(v/gamma)
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = float(rng.uniform(0.0, 2.0))
            var = float(rng.uniform(0.5, 1.5))
            v = field_from_family(grid, symmetric_mixture(a, var))
            cost = 0.5 * w2(gauss_spec(1.0, grid), v) ** 2
            rel = GridField.from_callable(
                grid,
                lambda x: v(x) / np.exp(-0.5 * x * x)
                * np.sqrt(2 * np.pi),
                log_fn=lambda x: v.log(x) + 0.5 * x * x
                + 0.5 * np.log(2 * np.pi),
                dlog_fn=lambda x: v.dlog(x) + x)
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
        # a shifted gamma_beta still attains equality (the deficit does not
        # see the mean), and reports gamma_beta's centred W2^2 and entropy
        r = talagrand_deficit(gauss_spec(2.0, grid, mean=0.8), 2.0)
        assert r.slack == pytest.approx(0, abs=1e-6)
        r0 = talagrand_deficit(gauss_spec(2.0, grid), 2.0)
        for key in ("w2_sq", "entropy"):
            assert r.params[key] == pytest.approx(r0.params[key], abs=1e-10)
        assert r.params["centering_shift"] == pytest.approx(0.8, abs=1e-12)

    def test_admissible_inputs_positive_slack(self, grid):
        rng = np.random.default_rng(11)
        for _ in range(3):
            v = make_talagrand_input(rng, 2.0, grid)
            r = talagrand_deficit(v, 2.0)
            assert r.asserted and r.slack >= -1e-5

    def test_mikulincer_reported_for_small_beta(self, grid):
        r = talagrand_deficit(gauss_spec(0.5, grid), 0.5)
        assert "mikulincer_bound" in r.params
        assert r.sharp_constant < r.params["mikulincer_bound"]

    def test_non_log_concave_input_not_asserted(self, grid):
        v = field_from_family(grid, symmetric_mixture(2.0, 1.0))
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
        v = field_from_family(grid, symmetric_mixture(2.0, 1.0))
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
    def _potential(grid, omega=1.0, eps=0.0, d2log=True):
        """e^{-V}, V = omega x^2/2 + eps log cosh x, with -V', and -V''
        unless d2log is False."""
        ref = GridField.from_callable(
            grid, log_fn=lambda x: -(0.5 * omega * x * x
                                     + eps * np.log(np.cosh(x))),
            dlog_fn=lambda x: -(omega * x + eps * np.tanh(x)),
            d2log_fn=(lambda x: -(omega + eps / np.cosh(x) ** 2))
            if d2log else None)
        return PotentialSpec(ref, K=omega, L=omega + eps)

    @staticmethod
    def _member(pot, beta):
        """e^{-V/beta}, normalised by the trapezoid rule on the grid."""
        ref = pot.reference
        logz = float(np.log(np.trapezoid(np.exp(ref.grid_log() / beta),
                                         dx=ref.grid.spacing)))
        return GridField.from_callable(
            ref.grid, log_fn=lambda x: ref.log(x) / beta - logz,
            dlog_fn=lambda x: ref.dlog(x) / beta,
            d2log_fn=lambda x: ref.analytic_d2log(x) / beta)

    def test_equality_at_reference_quadratic(self, grid):
        pot = self._potential(grid)
        r = general_lsi_deficit(self._member(pot, 2.0), pot, 2.0)
        assert r.asserted
        assert r.slack == pytest.approx(0, abs=1e-9)

    def test_perturbed_potential_positive_slack(self, grid):
        pot = self._potential(grid, omega=1.0, eps=0.03)
        beta = 2.0
        beta_v = beta * pot.L / pot.K * 1.1
        r = general_lsi_deficit(self._member(pot, beta_v), pot, beta)
        assert r.asserted
        assert r.slack >= -1e-4

    def test_potential_without_d2log_takes_the_stencil(self, grid):
        # V'' is the reference's exact -(log)''; left out, it is the
        # second difference of V at the grid spacing
        exact = self._potential(grid, omega=1.2, eps=0.04)
        stencil = self._potential(grid, omega=1.2, eps=0.04, d2log=False)
        v = self._member(exact, 2.0 * exact.L / exact.K)
        margins = [[h.margin for h in general_lsi_deficit(v, pot, 2.0)
                    .hypotheses[:2]] for pot in (exact, stencil)]
        x = grid.points[2:-2]
        vpp = 1.2 + 0.04 / np.cosh(x) ** 2
        assert margins[0] == [np.min(vpp) - 1.2, 1.24 - np.max(vpp)]
        np.testing.assert_allclose(margins[1], margins[0], rtol=0, atol=1e-6)
        assert margins[1] != margins[0]

    def test_needs_the_exact_slopes(self, grid):
        # V' and (log v)' are read from the dlog closures, never differenced
        pot = self._potential(grid)
        v = self._member(pot, 2.0)
        bare = GridField.from_callable(grid, log_fn=v.analytic_log)
        with pytest.raises(ParameterError, match=r"\(log f\)'"):
            general_lsi_deficit(bare, pot, 2.0)
        flat = PotentialSpec(GridField.from_callable(
            grid, log_fn=pot.reference.analytic_log), K=1.0, L=1.0)
        with pytest.raises(ParameterError, match=r"\(log f\)'"):
            general_lsi_deficit(v, flat, 2.0)

    def test_asymmetric_input_not_asserted(self, grid):
        pot = self._potential(grid)
        x = grid.points
        logz = float(np.log(np.trapezoid(np.exp(-0.3 * (x - 0.5) ** 2),
                                         dx=grid.spacing)))
        raw = GridField.from_callable(
            grid, log_fn=lambda y: -0.3 * (y - 0.5) ** 2 - logz,
            dlog_fn=lambda y: -0.6 * (y - 0.5))
        r = general_lsi_deficit(raw, pot, 2.0)
        assert not r.asserted

    def test_requires_beta_above_one(self, grid):
        pot = self._potential(grid)
        with pytest.raises(ParameterError):
            general_lsi_deficit(self._member(pot, 1.0), pot, 0.9)
