import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gauss_deficit.families import (LogQuad, field_from_family,
                                    symmetric_mixture)
from gauss_deficit.functionals import _log_lp, log_ou_norm, tilt
from gauss_deficit.numerics import GridField, ParameterError, default_grid
from gauss_deficit.semigroups import (ExponentTriple,
                                      InadmissibleExponentError,
                                      _ou_closures_1d, beta_s)


def ratio_field(grid, beta):
    """gamma_beta / gamma as a tagged field."""
    return tilt(LogQuad.gaussian(beta), 1.0, 1.0).field(grid)


def ou_log(f, s, rule):
    """log P_s f by quadrature, the closure of f's log."""
    return _ou_closures_1d(f.log, s, rule)[0]


class TestNelsonTime:
    def test_known_values(self):
        assert ExponentTriple(2.0, 4.0).s == pytest.approx(0.5 * np.log(3.0))
        assert ExponentTriple(1.5, 3.0).s == pytest.approx(0.5 * np.log(4.0))
        # reverse regime: both below 1, q < p
        assert ExponentTriple(0.5, -1.0).s == pytest.approx(
            0.5 * np.log(4.0))

    def test_rejects_inadmissible(self):
        # a ratio below 1 or overflowing, an exponent 1, non-finite
        # exponents, and p = 0 or q = 0 (the excluded p = 1 - e^{-2s}),
        # where the ratio exceeds 1
        for p, q in ((4.0, 2.0), (1.0 + 2.3e-16, 1e300), (1.0, 3.0),
                     (2.0, np.inf), (np.nan, 4.0), (-np.inf, -2.0),
                     (0.5, np.nan), (0.0, -1.0), (0.75, 0.0), (0.5, 1e-10)):
            with pytest.raises(InadmissibleExponentError):
                ExponentTriple(p, q)


class TestExponentTriple:
    def test_pq_roundtrip(self):
        t = ExponentTriple(2.0, 4.0)
        assert t.s == pytest.approx(0.5 * np.log(3.0))
        assert t.regime == "forward"
        assert t.p_conj == pytest.approx(2.0)
        assert t.q_conj == pytest.approx(4.0 / 3.0)

    def test_reverse_regimes(self):
        assert ExponentTriple(0.5, 0.25).regime == "reverse-same-sign"
        assert ExponentTriple(-1.0, -3.0).regime == "reverse-same-sign"
        assert ExponentTriple(0.5, -1.0).regime == \
            "reverse-opposite-sign"

    def test_inconsistent_triple_rejected(self):
        # s is derived from (p, q), so no third exponent can disagree
        with pytest.raises(TypeError):
            ExponentTriple(2.0, 4.0, 0.1)


class TestBetaS:
    def test_formula(self):
        t = ExponentTriple(2.0, 4.0)
        bs = beta_s(2.0, t)
        # 1 + (2-1)(4/2)(1/3) = 5/3
        assert bs == pytest.approx(5.0 / 3.0, rel=1e-12)
        assert bs > 0

    def test_flags_nonpositive(self):
        # opposite-sign reverse triple: (q/p) e^{-2s} = -1/2, so the
        # flowed parameter crosses zero at beta = 3
        t = ExponentTriple(0.5, -1.0)
        assert not beta_s(4.0, t) > 0
        assert beta_s(2.0, t) > 0

    @given(beta=st.floats(0.2, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_beta_one_fixed_point(self, beta):
        t = ExponentTriple(2.0, 4.0)
        assert beta_s(1.0, t) == pytest.approx(1.0, abs=1e-14)
        if beta > 1:
            assert beta_s(beta, t) > 1
        if beta < 1:
            assert beta_s(beta, t) < 1


class TestOuApply:
    """P_s applied: log_ou_norm's closed form for a tagged field, and the
    log-space quadrature closure at any points."""

    def test_gaussian_ratio_closed_form(self, grid, rule):
        # P_s(gamma_beta/gamma) stays in the log-quadratic family: the norm
        # of the tagged field is that of P_s's closed form summed by GH
        f = ratio_field(grid, 2.0)
        s = 0.4
        got = log_ou_norm(f, 2.0, s, rule)
        expect = _log_lp(f.tag.ou(s).log_at(rule.nodes),
                         2.0, rule.log_weights)
        np.testing.assert_allclose(got, expect, rtol=1e-10)

    def test_quadrature_matches_closure(self, grid, rule):
        # strip the tag to force the quadrature path
        mix = symmetric_mixture(1.0, 1.0)
        bare = GridField.from_callable(grid, lambda x: mix(x))
        s = 0.3
        got = np.exp(ou_log(bare, s, rule)(grid.points))
        expect = field_from_family(grid, mix.ou(s))
        inner = slice(200, -200)
        np.testing.assert_allclose(got[inner], expect.values[inner],
                                   rtol=1e-8)

    def test_constant_preserved(self, grid, rule):
        f = GridField.from_callable(
            grid, lambda x: np.full_like(np.asarray(x, float), 2.5))
        got = np.exp(ou_log(f, 0.7, rule)(grid.points))
        np.testing.assert_allclose(got, 2.5, rtol=1e-12)

    def test_quadrature_fills_grid_once(self, grid, rule):
        mix = symmetric_mixture(1.0, 1.0)
        calls = []

        def fn(x):
            calls.append(np.size(x))
            return mix(x)

        got = ou_log(GridField.from_callable(grid, fn), 0.3, rule)(
            grid.points)
        # one fill of the input, one quadrature pass over the output grid
        assert calls == [grid.n, grid.n * rule.nodes.size]
        assert got.shape == (grid.n,)

    def test_rejects_nonpositive_time(self, grid, rule):
        f = ratio_field(grid, 2.0)
        with pytest.raises(ParameterError):
            ou_log(f, 0.0, rule)
        for negative in (lambda: log_ou_norm(f, 2.0, -0.1, rule),
                         lambda: f.tag.ou(-0.1)):
            with pytest.raises(ParameterError):
                negative()

    def test_semigroup_property(self, grid):
        fam = tilt(LogQuad.gaussian(2.0), 1.0, 1.0).tag
        a = fam.ou(0.3).ou(0.4)
        b = fam.ou(0.7)
        x = np.linspace(-5, 5, 11)
        np.testing.assert_allclose(a.log_at(x), b.log_at(x), atol=1e-12)

