import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr

from gauss_deficit import cli, families, flows
from gauss_deficit.families import (LogQuad, field_from_family,
                                    gaussian_field, symmetric_mixture)
from gauss_deficit.functionals import tilt
from gauss_deficit.numerics import (ParameterError, default_grid,
                                    gauss_hermite_rule)


def ratio(beta):
    """gamma_beta / gamma as a LogQuad."""
    return tilt(LogQuad.gaussian(beta), 1.0, 1.0).tag


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
        fam = ratio(2.0)
        x = np.array([0.0, 1.0, -2.5])
        expect = ((2 * np.pi * 2.0) ** -0.5 * np.exp(-x * x / 4.0)
                  / ((2 * np.pi) ** -0.5 * np.exp(-x * x / 2.0)))
        np.testing.assert_allclose(fam(x), expect, rtol=1e-12)

    def test_power(self):
        a = LogQuad(0.1, 0.2, 0.3)
        x = 0.37
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
        fam = ratio(2.0) ** 0.5
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
        fam = ratio(2.0)
        r = 1.5
        brute = brute_gauss_integral(fam ** r) ** (1 / r)
        assert np.exp(fam.log_lp_norm_gauss(r)) == pytest.approx(
            brute, rel=1e-10)

    def test_mass_and_cdf(self):
        fam = LogQuad.gaussian(2.0, mean=0.5)
        cdf = fam.cdf()
        assert fam.integral_lebesgue() == pytest.approx(1.0, rel=1e-12)
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
        ref = sum(mq * q.cdf()(self.X) for mq, q in zip(masses, parts)) / mass
        self.assert_close(fam.cdf()(self.X), ref)

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
        f = field_from_family(grid, ratio(4.0))
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

    def test_one_component_curvature_holds_no_array(self):
        d2 = LogQuad.gaussian(2.0)._pass(np.linspace(-5.0, 5.0, 101), 2)[2]
        assert d2.strides == (0,) and np.all(d2 == -0.5)

    @staticmethod
    def mixture(k, seed, about):
        """K components exp(peak + a (x - m)^2 / 2) of unequal widths, and
        their (a, b, c) in long double; with ``about`` the family is read
        about each block's mid-point from the exact centres m."""
        rng = np.random.default_rng(seed)
        a, m = rng.uniform(-2.0, -0.25, k), rng.uniform(-3.0, 3.0, k)
        peak = rng.uniform(-3.0, 3.0, k)

        def centred(s):
            return a, a * (s - m), peak + 0.5 * a * (s - m) ** 2

        fam = LogQuad(*centred(0.0), _about=centred if about else None)
        if not about:
            return fam, [np.asarray(v, np.longdouble) for v in
                         (fam.a, fam.b, fam.c)]
        a, m, peak = (np.asarray(v, np.longdouble) for v in (a, m, peak))
        return fam, [a, -a * m, peak + a * m * m / 2]

    @staticmethod
    def brute_pass(a, b, c, x):
        """[log f, (log f)', (log f)''] at x in long double, one component
        at a time."""
        x = np.asarray(x, np.longdouble)
        L = [ak * x * x / 2 + bk * x + ck for ak, bk, ck in zip(a, b, c)]
        top = np.max(L, axis=0)
        s0, s1, s2 = 0, 0, 0
        for ak, bk, Lk in zip(a, b, L):
            w, slope = np.exp(Lk - top), ak * x + bk
            s0, s1, s2 = s0 + w, s1 + w * slope, s2 + w * (ak + slope ** 2)
        mean = s1 / s0
        return [top + np.log(s0), mean, s2 / s0 - mean * mean]

    def assert_matches_brute(self, fam, abc, x):
        want = self.brute_pass(*abc, x)
        for order in (0, 1, 2):
            got = fam._pass(x, order)
            assert len(got) == order + 1
            for g, w in zip(got, want):
                assert g.shape == x.shape
                err = np.abs(g - w) / (1 + np.abs(w))
                assert np.max(err) <= 1e-13

    @pytest.mark.parametrize("k", [2, 3, 8, 64, 200])
    @pytest.mark.parametrize("about", [False, True])
    def test_pass_matches_long_double(self, k, about):
        # several blocks of _CHUNK // K points; about the blocks' mid-points
        # the points may reach the grid's ends
        fam, abc = self.mixture(k, k, about)
        step = families._CHUNK // k
        x = np.linspace(-12.0 if about else -4.0, 12.0 if about else 4.0,
                        3 * step + 5)
        self.assert_matches_brute(fam, abc, x)

    @pytest.mark.parametrize("about", [False, True])
    def test_pass_on_nested_gauss_hermite_samples(self, rule, about):
        # the (96, 96) samples e^-s z_i + sqrt(1 - e^-2s) z_j of a nested GH
        # norm: unsorted, two blocks at K = 8; held about 0, the family is
        # read on a third of their range, where its rounding stays small
        e = np.exp(-0.4)
        x = e * rule.nodes[:, None] + np.sqrt(1.0 - e * e) * rule.nodes
        fam, abc = self.mixture(8, 11, about)
        self.assert_matches_brute(fam, abc, x if about else x / 3.0)

    @pytest.mark.parametrize("about", [False, True])
    def test_nan_point_gives_nan(self, about):
        fam, _ = self.mixture(8, 12, about)
        x = np.linspace(-4.0, 4.0, 101)
        x[[0, 50]] = np.nan
        for order in (0, 1, 2):
            for row in fam._pass(x, order):
                assert np.all(np.isnan(row[[0, 50]]))

    def test_nan_point_moves_no_other(self):
        # a family held about its blocks' centres takes each centre from
        # the block's finite points: the other 100 points read bit for bit
        # what they read without the NaN, and a block of NaN reads NaN
        fam, _ = self.mixture(8, 12, True)
        x = np.linspace(-4.0, 4.0, 101)
        x_nan = x.copy()
        x_nan[37] = np.nan
        for order in (0, 1, 2):
            for got, want in zip(fam._pass(x_nan, order),
                                 fam._pass(np.delete(x, 37), order)):
                np.testing.assert_array_equal(np.delete(got, 37), want)
            for row in fam._pass(np.full(3, np.nan), order):
                assert np.all(np.isnan(row))

    @pytest.mark.parametrize("about", [False, True])
    def test_infinite_points_read_the_limit(self, about):
        # every exponent is -inf at x = +-inf; there log f reads -inf,
        # (log f)' -+inf and (log f)'' the widest component's a, their
        # limits, without a warning; the finite point reads as beside
        # finite points (a product over 1 column may round otherwise)
        fam, _ = self.mixture(8, 13, about)
        x = np.array([0.0, np.inf, -np.inf])
        for q in (fam, symmetric_mixture(1.0, 1.0)):
            for order in (0, 1, 2):
                want = q._pass(np.array([0.0, 1.0, -1.0]), order)
                for got, row in zip(q._pass(x, order), want):
                    assert got[0] == row[0]
            got = q._pass(x, 2)
            np.testing.assert_array_equal(got[0][1:], -np.inf)
            np.testing.assert_array_equal(got[1][1:], [-np.inf, np.inf])
            np.testing.assert_array_equal(got[2][1:], q.a.max())

    @pytest.mark.parametrize("order, rows, doubles", [(0, 1, 10), (2, 2, 13)])
    def test_peak_memory_per_point(self, grid, order, rows, doubles):
        # a pass holds its scratch rows of K doubles a point, its output rows
        # and a few block rows; a fresh (K, n) temporary would cost K more
        rng = np.random.default_rng(3)
        fam = flows._atoms_family(rng.uniform(-3.0, 3.0, 8),
                                  rng.normal(-2.0, 1.0, 8), 2.0, 0.3)
        K, x = fam.a.size, grid.points
        tracemalloc.start()
        try:
            fam._pass(x, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (rows * K + doubles) * 8 * x.size

    def test_unbanded_families_keep_every_component(self):
        # every block sums all K components, so the order of the
        # components moves log f by rounding only
        x = np.linspace(-6.0, 6.0, 1001)
        rng = np.random.default_rng(2)
        means = np.sort(rng.uniform(-4.0, 4.0, 200))
        sorted_ = LogQuad.gaussian(0.05, means)
        shuffled = LogQuad.gaussian(0.05, rng.permutation(means))
        np.testing.assert_allclose(shuffled.log_at(x), sorted_.log_at(x),
                                   rtol=1e-15, atol=1e-15)


class TestRankKSums:
    """LogQuad.log_at_sums: log f at x_i + y_j, a rank-K product of shifted
    exps when every a_k is equal."""

    @staticmethod
    def nested(s=0.3):
        """The (96, 96) nested Gauss-Hermite sums e^-s z_i + sqrt(1 -
        e^-2s) z_j, as their two 1-D factors."""
        z, e = gauss_hermite_rule(96).nodes, np.exp(-s)
        return e * z, np.sqrt(1.0 - e * e) * z

    @staticmethod
    def fp_family(seed, i):
        return cli._density(cli.RunConfig("verify-hc", beta=2.0, seed=seed),
                            i).tag

    @staticmethod
    def long_double_log(fam, t):
        """log f at the float64 points t in long double, from the exact
        centres: an FP family's _about at a long-double 0."""
        a, b, c = (np.asarray(v, np.longdouble)
                   for v in fam._about(np.longdouble(0.0)))
        L = c + t.astype(np.longdouble)[..., None] * (
            b + 0.5 * a * t.astype(np.longdouble)[..., None])
        top = L.max(axis=-1)
        return top + np.log(np.exp(L - top[..., None]).sum(axis=-1))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="long double is no wider than double here")
    def test_no_less_accurate_than_the_pass(self):
        # FP(2) inputs of verify-hc, seeds 0-2, items 1-5: |log f| reaches
        # 187 on these sums
        x, y = self.nested()
        t = x[:, None] + y
        worst_sums = worst_pass = 0.0
        for seed in range(3):
            for i in range(1, 6):
                fam = self.fp_family(seed, i)
                want = self.long_double_log(fam, t)
                got = fam.log_at_sums(x, y)
                assert got.shape == t.shape
                worst_sums = max(worst_sums, float(np.max(np.abs(got - want))))
                worst_pass = max(worst_pass, float(np.max(np.abs(
                    fam.log_at(t) - want))))
        assert worst_sums <= worst_pass

    def test_wide_slopes_read_the_pass(self):
        # db max|y| = 60 * 12.4 > 600: the product could underflow
        x, y = self.nested()
        fam = LogQuad.gaussian(1.0, np.array([-30.0, 30.0]))
        assert np.ptp(fam.b) * np.abs(y).max() > 600.0
        np.testing.assert_array_equal(fam.log_at_sums(x, y),
                                      fam.log_at(x[:, None] + y))

    def test_unequal_widths_read_the_pass(self):
        x, y = self.nested()
        fam = LogQuad(np.array([-1.0, -0.5]), np.array([0.3, -0.2]),
                      np.array([0.1, -1.0]))
        np.testing.assert_array_equal(fam.log_at_sums(x, y),
                                      fam.log_at(x[:, None] + y))

    @pytest.mark.parametrize("about", [False, True])
    def test_agrees_with_the_pass(self, about):
        x, y = self.nested(0.8)
        fam = self.fp_family(1, 3)
        if not about:
            fam = LogQuad(fam.a, fam.b, fam.c)
        t = x[:, None] + y
        np.testing.assert_allclose(fam.log_at_sums(x, y), fam.log_at(t),
                                   rtol=1e-14, atol=1e-13)
