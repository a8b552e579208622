"""numerics.logsumexp, cumulative_simpson and ndtr against scipy, which the
library no longer imports: the oracles need the ``test`` extra."""
import numpy as np
import pytest

from gauss_deficit.families import LogQuad
from gauss_deficit.numerics import (ParameterError, cumulative_simpson,
                                    logsumexp, ndtr)

special = pytest.importorskip("scipy.special")
integrate = pytest.importorskip("scipy.integrate")


def _lse_inputs():
    rng = np.random.default_rng(7)
    ties = rng.normal(0.0, 30.0, 96)
    ties[[3, 40, 77]] = ties.max() + 1.5
    holes = rng.normal(-700.0, 50.0, 48)
    holes[::5] = -np.inf
    rows = rng.normal(0.0, 20.0, (4097, 96))
    rows[::7, ::3] = -np.inf
    rows[5] = -np.inf               # all -inf
    rows[6, 2] = np.inf             # +inf
    rows[8, :4] = rows[8].max()     # tied row maximum
    rows[9, 1] = np.nan
    return {"ties": ties, "holes": holes, "rows": rows,
            "all-inf": np.full(5, -np.inf), "plus-inf": np.array([0.0, np.inf]),
            "one": np.array([3.25]), "nodes": rng.normal(0.0, 1.0, (48, 96))}


class TestLogSumExp:
    @pytest.mark.parametrize("name", sorted(_lse_inputs()))
    @pytest.mark.parametrize("axis", [None, -1])
    def test_bit_identical_to_scipy(self, name, axis):
        # the one max-shift pass against scipy's tie-aware log1p form: equal
        # where the result is not finite, else within 1 ulp of
        # max(1, |result|); the two forms round differently, so bit identity
        # is not asserted
        a = _lse_inputs()[name]
        got, want = logsumexp(a, axis=axis), special.logsumexp(a, axis=axis)
        assert np.shape(got) == np.shape(want)
        got, want = np.atleast_1d(got), np.atleast_1d(want)
        finite = np.isfinite(want)
        np.testing.assert_array_equal(got[~finite], want[~finite])
        ulp = np.spacing(np.maximum(1.0, np.abs(want[finite])))
        assert np.all(np.abs(got[finite] - want[finite]) <= ulp)

    def test_only_all_entries_or_last_axis(self):
        with pytest.raises(ParameterError):
            logsumexp(np.zeros((2, 3)), axis=0)

    def test_scalar_result_is_a_float(self):
        assert isinstance(logsumexp([0.0, 0.0]), np.floating)
        assert logsumexp([0.0, 0.0]) == np.log(2.0)


class TestCumulativeSimpson:
    @pytest.mark.parametrize("n", [3, 4, 5, 4096, 4097])
    @pytest.mark.parametrize("initial", [0.0, 1.5])
    def test_bit_identical_to_scipy(self, n, initial):
        y = np.exp(-np.random.default_rng(n).normal(0.0, 2.0, n) ** 2)
        got = cumulative_simpson(y, 0.0117, initial=initial)
        want = integrate.cumulative_simpson(y, dx=0.0117, initial=initial)
        np.testing.assert_array_equal(got, want)

    def test_needs_three_samples(self):
        with pytest.raises(ParameterError):
            cumulative_simpson(np.ones(2), 0.1, 0.0)


def _check_ndtr(a):
    got, want = ndtr(a, a.copy()), special.ndtr(a)
    np.testing.assert_array_equal(got == 0.0, want == 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


class TestNdtr:
    def test_dense_grid(self):
        a = np.linspace(-40.0, 40.0, 400_001)
        _check_ndtr(a)
        # the cut at -37.68
        assert np.count_nonzero(ndtr(a, a.copy()) == 0.0) > 0

    def test_branch_edges_and_specials(self):
        r2 = np.sqrt(2.0)
        edges = np.array([r2, 8 * r2, np.sqrt(2 * 709.782712893384)])
        a = np.concatenate([edges, -edges, np.nextafter(edges, 0),
                            -np.nextafter(edges, 0), [0.0, -0.0, 1e200,
                                                      -1e200]])
        _check_ndtr(a)
        specials = np.array([np.inf, -np.inf, np.nan])
        special_values = ndtr(specials, specials.copy())
        np.testing.assert_array_equal(special_values, [1.0, 0.0, np.nan])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixture_arguments(self, seed):
        # the standardised arguments LogQuad.cdf hands to ndtr
        rng = np.random.default_rng(seed)
        k = 6
        sigma = rng.uniform(0.05, 3.0, k)
        mean = rng.uniform(-10.0, 10.0, k)
        x = np.linspace(-12.0, 12.0, 4097)[:, None]
        _check_ndtr((x - mean) / sigma)

    def test_rejects_strided_out(self):
        a = np.zeros((8, 4))
        with pytest.raises(ParameterError):
            ndtr(a[:, ::2], out=a[:, ::2])

    def test_mixture_cdf(self):
        # the blocked CDF of a K = 3 mixture against scipy's per component
        q = LogQuad(np.array([-1.0, -4.0, -0.25]), np.array([0.5, 8.0, -1.0]),
                    np.array([-2.0, -9.0, -3.0]))
        cdf, mass = q.cdf(), q.integral_lebesgue()
        mean, sigma = -q.b / q.a, np.sqrt(-1.0 / q.a)
        x = np.linspace(-30.0, 30.0, 70001)
        want = special.ndtr((x[:, None] - mean) / sigma) @ (q._masses() / mass)
        np.testing.assert_allclose(cdf(x), want, rtol=1e-14, atol=0.0)
