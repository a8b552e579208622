import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gauss_deficit.families import (LogQuad, field_from_family,
                                    gaussian_ratio_field, symmetric_mixture)
from gauss_deficit.functionals import _log_lp, log_ou_norm
from gauss_deficit.numerics import GridField, ParameterError, default_grid
from gauss_deficit.semigroups import (ExponentTriple,
                                      InadmissibleExponentError,
                                      _ou_closures_1d, beta_s, nelson_time)


def ou_log(f, s, rule):
    """log P_s f by quadrature, the closure of f's log."""
    return _ou_closures_1d(f.log, s, rule)[0]


class TestNelsonTime:
    def test_known_values(self):
        assert nelson_time(2.0, 4.0) == pytest.approx(0.5 * np.log(3.0))
        assert nelson_time(1.5, 3.0) == pytest.approx(0.5 * np.log(4.0))
        # reverse regime: both below 1, q < p
        assert nelson_time(0.5, -1.0) == pytest.approx(0.5 * np.log(4.0))

    def test_rejects_inadmissible(self):
        with pytest.raises(InadmissibleExponentError):
            nelson_time(4.0, 2.0)
        with pytest.raises(InadmissibleExponentError):
            nelson_time(1.0, 3.0)


class TestExponentTriple:
    def test_from_pq_roundtrip(self):
        t = ExponentTriple.from_pq(2.0, 4.0)
        assert t.s == pytest.approx(0.5 * np.log(3.0))
        assert t.regime == "forward"
        assert t.p_conj == pytest.approx(2.0)
        assert t.q_conj == pytest.approx(4.0 / 3.0)

    def test_reverse_regimes(self):
        assert ExponentTriple.from_pq(0.5, 0.25).regime == "reverse-same-sign"
        assert ExponentTriple.from_pq(0.5, -1.0).regime == \
            "reverse-opposite-sign"

    def test_inconsistent_triple_rejected(self):
        with pytest.raises(InadmissibleExponentError):
            ExponentTriple(2.0, 4.0, 0.1)


class TestBetaS:
    def test_formula(self):
        t = ExponentTriple.from_pq(2.0, 4.0)
        bs = beta_s(2.0, t)
        # 1 + (2-1)(4/2)(1/3) = 5/3
        assert bs == pytest.approx(5.0 / 3.0, rel=1e-12)
        assert bs > 0

    def test_flags_nonpositive(self):
        # opposite-sign reverse triple: (q/p) e^{-2s} = -1/2, so the
        # flowed parameter crosses zero at beta = 3
        t = ExponentTriple.from_pq(0.5, -1.0)
        assert not beta_s(4.0, t) > 0
        assert beta_s(2.0, t) > 0

    @given(beta=st.floats(0.2, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_beta_one_fixed_point(self, beta):
        t = ExponentTriple.from_pq(2.0, 4.0)
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
        f = gaussian_ratio_field(grid, 2.0)
        s = 0.4
        got = log_ou_norm(f, 2.0, s, rule)
        expect = _log_lp(LogQuad.gaussian_ratio(2.0).ou(s).log_at(rule.nodes),
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
        f = gaussian_ratio_field(grid, 2.0)
        with pytest.raises(ParameterError):
            ou_log(f, 0.0, rule)
        for negative in (lambda: log_ou_norm(f, 2.0, -0.1, rule),
                         lambda: f.tag.ou(-0.1)):
            with pytest.raises(ParameterError):
                negative()

    def test_semigroup_property(self, grid):
        fam = LogQuad.gaussian_ratio(2.0)
        a = fam.ou(0.3).ou(0.4)
        b = fam.ou(0.7)
        x = np.linspace(-5, 5, 11)
        np.testing.assert_allclose(a.log_at(x), b.log_at(x), atol=1e-12)

