import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr

from gauss_deficit import families
from gauss_deficit.families import (LogQuad, field_from_family,
                                    gaussian_field, gaussian_ratio_field,
                                    symmetric_mixture)
from gauss_deficit.numerics import ParameterError, default_grid


def brute_gauss_integral(fam):
    # integrate the combined exponent to avoid overflow of fam alone
    return quad(lambda x: np.exp(fam.log_at(x) - 0.5 * x * x)
                / np.sqrt(2 * np.pi), -np.inf, np.inf)[0]


class TestLogQuad:
    def test_gaussian_normalized(self):
        for beta in (0.25, 0.5, 1.0, 2.0, 4.0):
            fam = LogQuad.gaussian(beta)
            assert fam.integral_lebesgue() == pytest.approx(1.0, rel=1e-12)

    def test_gaussian_ratio_values(self):
        fam = LogQuad.gaussian_ratio(2.0)
        x = np.array([0.0, 1.0, -2.5])
        expect = ((2 * np.pi * 2.0) ** -0.5 * np.exp(-x * x / 4.0)
                  / ((2 * np.pi) ** -0.5 * np.exp(-x * x / 2.0)))
        np.testing.assert_allclose(fam(x), expect, rtol=1e-12)

    def test_product_and_power(self):
        a = LogQuad(0.1, 0.2, 0.3)
        b = LogQuad(-0.4, 0.5, -0.6)
        x = 0.37
        assert (a * b).log_at(x) == pytest.approx(a.log_at(x) + b.log_at(x))
        assert (a ** 2.5).log_at(x) == pytest.approx(2.5 * a.log_at(x))

    def test_derivatives(self):
        fam = LogQuad(0.3, -0.7, 0.2)
        h = 1e-6
        x = 0.9
        fd1 = (fam.log_at(x + h) - fam.log_at(x - h)) / (2 * h)
        assert fam.dlog(x) == pytest.approx(fd1, abs=1e-8)
        h2 = 1e-4
        fd2 = (fam.log_at(x + h2) - 2 * fam.log_at(x)
               + fam.log_at(x - h2)) / h2 ** 2
        assert fam.d2log(x) == pytest.approx(fd2, abs=1e-5)

    def test_ou_evolution_vs_quadrature(self):
        # P_s f(x) = E[f(e^{-s} x + sqrt(1-e^{-2s}) Z)]
        fam = LogQuad.gaussian_ratio(2.0) ** 0.5
        s = 0.4
        evolved = fam.ou(s)
        e = np.exp(-s)
        sig = np.sqrt(1 - e * e)
        for x in (0.0, 1.3, -2.1):
            brute = quad(lambda z: np.exp(fam.log_at(e * x + sig * z)
                                          - 0.5 * z * z)
                         / np.sqrt(2 * np.pi), -np.inf, np.inf)[0]
            assert evolved(x) == pytest.approx(brute, rel=1e-9)

    def test_fp_evolution_vs_convolution(self):
        # the 2beta-heat part: v_t = law of e^{-t} X + noise, X ~ v_0
        fam = LogQuad.gaussian(0.7)
        beta, t = 2.0, 0.3
        evolved = fam.fp(beta, t)
        # for a Gaussian initial law the flow stays Gaussian with variance
        # e^{-2t} v0 + (1 - e^{-2t}) beta
        var = np.exp(-2 * t) * 0.7 + (1 - np.exp(-2 * t)) * beta
        ref = LogQuad.gaussian(var)
        for x in (0.0, 1.1, -2.4):
            assert evolved(x) == pytest.approx(ref(x), rel=1e-10)

    def test_lp_norm_gauss(self):
        fam = LogQuad.gaussian_ratio(2.0)
        r = 1.5
        brute = brute_gauss_integral(fam ** r) ** (1 / r)
        assert np.exp(fam.log_lp_norm_gauss(r)) == pytest.approx(
            brute, rel=1e-10)

    def test_mass_and_cdf(self):
        fam = LogQuad.gaussian(2.0, mean=0.5)
        mass, cdf = fam.mass_and_cdf()
        assert mass == pytest.approx(1.0, rel=1e-12)
        assert cdf(0.5) == pytest.approx(0.5, abs=1e-12)
        assert cdf(0.5 + np.sqrt(2.0)) == pytest.approx(ndtr(1.0), abs=1e-12)

    def test_moments(self):
        mass, mean, var = LogQuad.gaussian(3.0, mean=-0.2).moments()
        assert mass == pytest.approx(1.0, rel=1e-12)
        assert mean == pytest.approx(-0.2, abs=1e-12)
        assert var == pytest.approx(3.0, rel=1e-12)


class TestMixture:
    def test_symmetric_mixture_density(self):
        mix = symmetric_mixture(1.5, 1.0)
        x = np.array([-0.3, 0.0, 2.0])
        expect = 0.5 * (np.exp(-0.5 * (x - 1.5) ** 2)
                        + np.exp(-0.5 * (x + 1.5) ** 2)) / np.sqrt(2 * np.pi)
        np.testing.assert_allclose(mix(x), expect, rtol=1e-12)

    def test_dlog_matches_finite_difference(self):
        mix = symmetric_mixture(2.0, 0.8)
        h = 1e-6
        for x in (-1.7, 0.3, 2.2):
            fd = (mix.log_at(x + h) - mix.log_at(x - h)) / (2 * h)
            assert mix.dlog(x) == pytest.approx(fd, abs=1e-7)

    def test_d2log_matches_finite_difference(self):
        mix = symmetric_mixture(2.0, 0.8)
        h = 1e-4
        for x in (-1.7, 0.3, 2.2):
            fd = (mix.log_at(x + h) - 2 * mix.log_at(x)
                  + mix.log_at(x - h)) / h ** 2
            assert mix.d2log(x) == pytest.approx(fd, abs=1e-5)

    def test_moments(self):
        mix = symmetric_mixture(2.0, 1.0)
        mass, mean, var = mix.moments()
        assert mass == pytest.approx(1.0, rel=1e-12)
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert var == pytest.approx(5.0, rel=1e-12)  # 1 + a^2

    def test_l1_norm_sums_components(self):
        # at r = 1 the norm of a mixture is the sum of its components'
        mix = symmetric_mixture(1.5, 0.8)
        assert np.exp(mix.log_lp_norm_gauss(1.0)) == pytest.approx(
            brute_gauss_integral(mix), rel=1e-10)
        with pytest.raises(ParameterError):
            LogQuad(np.array([-1.0, 1.0]), 0.0).log_lp_norm_gauss(1.0)

    def test_ou_commutes_with_mixing(self):
        mix = symmetric_mixture(1.0, 1.0)
        s = 0.3
        evolved = mix.ou(s)
        parts = [LogQuad.gaussian(1.0, m).ou(s) for m in (1.0, -1.0)]
        for x in (0.0, 1.2):
            assert evolved(x) == pytest.approx(
                0.5 * parts[0](x) + 0.5 * parts[1](x), rel=1e-12)


def _components(fam):
    return [LogQuad(a, b, c) for a, b, c in zip(fam.a, fam.b, fam.c)]


def _loop_derivatives(fam, x):
    """Reference: log f, (log f)', (log f)'' by a loop over components."""
    parts = _components(fam)
    logs = [q.log_at(x) for q in parts]
    top = np.max(logs, axis=0)
    ws = [np.exp(lq - top) for lq in logs]
    total = sum(ws)
    ps = [w / total for w in ws]
    ds = [q.dlog(x) for q in parts]
    mean = sum(p * d for p, d in zip(ps, ds))
    second = sum(p * (q.a[0] + (d - mean) ** 2)
                 for p, d, q in zip(ps, ds, parts))
    return top + np.log(total), mean, second


class TestArrayFamilyOracle:
    """Every closed form of a K-component LogQuad against the loop over its
    single-component parts."""

    X = np.concatenate([[-40.0, -25.0], np.linspace(-6, 6, 49), [25.0, 40.0]])

    @staticmethod
    def family(k, seed):
        rng = np.random.default_rng(seed)
        return LogQuad(rng.uniform(-3.0, -0.2, k), rng.uniform(-3.0, 3.0, k),
                       rng.uniform(-2.0, 2.0, k))

    def assert_close(self, got, want):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def assert_same_family(self, got, parts):
        for n in "abc":
            self.assert_close(getattr(got, n),
                              np.concatenate([getattr(q, n) for q in parts]))

    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_pointwise(self, k, seed):
        fam = self.family(k, seed)
        ref = _loop_derivatives(fam, self.X)
        self.assert_close(fam.log_at(self.X), ref[0])
        self.assert_close(fam.dlog(self.X), ref[1])
        self.assert_close(fam.d2log(self.X), ref[2])
        assert np.all(np.isfinite(fam.d2log(self.X)))

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_kernels_and_dilation(self, k):
        fam = self.family(k, 2)
        parts = _components(fam)
        self.assert_same_family(fam.ou(0.4), [q.ou(0.4) for q in parts])
        self.assert_same_family(fam.fp(2.0, 0.3),
                                [q.fp(2.0, 0.3) for q in parts])

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_integrals_moments_cdf(self, k):
        fam = self.family(k, 3)
        parts = _components(fam)
        masses = np.array([q.integral_lebesgue() for q in parts])
        self.assert_close(fam.integral_lebesgue(), masses.sum())
        mv = np.array([q.moments() for q in parts])
        mass = mv[:, 0].sum()
        mean = (mv[:, 0] * mv[:, 1]).sum() / mass
        var = (mv[:, 0] * (mv[:, 2] + (mv[:, 1] - mean) ** 2)).sum() / mass
        got = fam.moments()
        self.assert_close(got, (mass, mean, var))
        m, cdf = fam.mass_and_cdf()
        self.assert_close(m, mass)
        ref = sum(mq * Fq(self.X) for mq, (_, Fq) in
                  zip(masses, (q.mass_and_cdf() for q in parts))) / mass
        self.assert_close(cdf(self.X), ref)

    def test_product_is_outer_sum(self):
        f, g = self.family(3, 4), self.family(2, 5)
        x = np.linspace(-4, 4, 17)
        self.assert_close((f * g).log_at(x), f.log_at(x) + g.log_at(x))

    def test_single_component_operations_reject_mixtures(self):
        mix = symmetric_mixture(1.0)
        with pytest.raises(ParameterError):
            mix ** 2.0
        with pytest.raises(ParameterError):
            mix.log_lp_norm_gauss(2.0)


class TestFields:
    def test_field_from_family_has_closures(self, grid):
        f = field_from_family(grid, symmetric_mixture(1.0, 1.0))
        assert f.analytic_log is not None and f.tag is not None

    def test_gaussian_field_mass(self, grid):
        f = gaussian_field(grid, 2.0)
        mass = np.trapezoid(f.values, dx=grid.spacing)
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_gaussian_ratio_field_at_zero(self, grid):
        f = gaussian_ratio_field(grid, 4.0)
        assert float(f(0.0)) == pytest.approx(0.5, rel=1e-12)

    @given(beta=st.floats(0.2, 5.0), mean=st.floats(-2, 2))
    @settings(max_examples=20, deadline=None)
    def test_gaussian_integral_one(self, beta, mean):
        assert LogQuad.gaussian(beta, mean).integral_lebesgue() == \
            pytest.approx(1.0, rel=1e-10)


class TestEvaluationPass:
    @pytest.mark.parametrize("order, scratch", [(0, 1), (1, 1), (2, 2)])
    def test_scratch_arrays_per_order(self, order, scratch, monkeypatch):
        # an order-0/1 pass needs the exponent table only; order 2 also the
        # centred slopes
        seen, by_blocks = [], families._by_blocks

        def recording(x, k, rows, fn, **kw):
            def block(xs, work):
                seen.append(work.shape[0])
                return fn(xs, work)
            return by_blocks(x, k, rows, block, **kw)

        monkeypatch.setattr(families, "_by_blocks", recording)
        symmetric_mixture(1.0, 1.0)._pass(np.linspace(-5.0, 5.0, 101), order)
        assert seen == [scratch]

    def test_rows_are_separate_arrays(self):
        # keeping log f and (log f)'' keeps no (log f)' row alive
        rows = symmetric_mixture(1.0, 1.0)._pass(np.linspace(-5, 5, 101), 2)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert not np.shares_memory(rows[i], rows[j])

    @pytest.mark.parametrize("fam", [symmetric_mixture(1.0, 1.0),
                                     LogQuad.gaussian(2.0)])
    def test_sink_takes_the_rows_block_by_block(self, fam, monkeypatch):
        # a sink gets every block's rows in order, and no output array is
        # made: the concatenated blocks are the pass's rows
        monkeypatch.setattr(families, "_CHUNK", 64)
        x = np.linspace(-5.0, 5.0, 101)
        blocks = []
        assert fam._pass(x, 2, sink=lambda b, rows: blocks.append(
            (b, [np.array(r) for r in rows]))) is None
        starts = [b.indices(x.size)[0] for b, _ in blocks]
        assert starts == sorted(starts) and starts[0] == 0
        for want, got in zip(fam._pass(x, 2),
                             zip(*(rows for _, rows in blocks))):
            np.testing.assert_array_equal(np.concatenate(got), want)

    def test_one_component_curvature_holds_no_array(self):
        d2 = LogQuad.gaussian(2.0)._pass(np.linspace(-5.0, 5.0, 101), 2)[2]
        assert d2.strides == (0,) and np.all(d2 == -0.5)

    @pytest.mark.parametrize("shape", [(4097, 8), (2048, 2), (113, 577),
                                       (64, 64)])
    def test_row_max_is_bit_identical(self, shape):
        # the column-by-column max of tall narrow tables, NaN and -inf rows
        # included
        L = np.random.default_rng(1).normal(0.0, 50.0, shape)
        L[3, 1] = np.nan
        L[5] = -np.inf
        L[7, :] = np.nan
        L[9, 0] = -np.inf
        want = L.max(axis=1)
        got = families._row_max(L)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_scratch_sized_by_the_window(self, monkeypatch):
        # 577 atoms of one width on a lattice: the blocks sum windows of
        # them, and the scratch holds the widest window, not all 577
        q = LogQuad.gaussian(0.05, np.linspace(-12.0, 12.0, 577))
        x = np.linspace(-12.0, 12.0, 4097)
        seen, by_blocks = [], families._by_blocks

        def recording(x, k, rows, fn, **kw):
            def block(xs, work):
                seen.append(work.shape[1] // xs.shape[0])
                return fn(xs, work)
            return by_blocks(x, k, rows, block, **kw)

        monkeypatch.setattr(families, "_by_blocks", recording)
        q._pass(x, 2)
        assert max(seen) < 577 // 2
        assert q.window_share(x)[0] < 0.3

    def test_unbanded_families_keep_every_component(self):
        x = np.linspace(-6.0, 6.0, 1001)
        rng = np.random.default_rng(2)
        means = np.sort(rng.uniform(-4.0, 4.0, 200))
        sorted_ = LogQuad.gaussian(0.05, means)
        shuffled = LogQuad.gaussian(0.05, rng.permutation(means))
        widths = LogQuad(sorted_.a * rng.uniform(0.9, 1.1, 200), sorted_.b,
                         sorted_.c)
        assert sorted_.window_share(x)[0] < 1.0
        for q in (shuffled, widths, symmetric_mixture(1.0, 0.3)):
            assert q.window_share(x) == (1.0, 0.0)
        np.testing.assert_allclose(shuffled.log_at(x), sorted_.log_at(x),
                                   rtol=1e-15, atol=1e-15)
