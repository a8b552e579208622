import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gauss_deficit.families import LogQuad, field_from_family
from gauss_deficit.numerics import (Grid1D, GridField, ParameterError,
                                    default_grid, gauss_hermite_rule)


class TestGrid:
    def test_spacing_and_points(self):
        g = Grid1D(-1.0, 1.0, 9)
        assert g.spacing == pytest.approx(0.25)
        assert g.points[0] == -1.0 and g.points[-1] == 1.0
        assert len(g.points) == 9

    def test_points_built_once_and_read_only(self):
        g = Grid1D(-3.0, 5.0, 33)
        assert g.points is g.points
        np.testing.assert_array_equal(g.points, np.linspace(-3.0, 5.0, 33))
        with pytest.raises(ValueError):
            g.points[0] = 0.0

    def test_rejects_bad_bounds(self):
        with pytest.raises(ParameterError):
            Grid1D(1.0, -1.0, 9)
        with pytest.raises(ParameterError):
            Grid1D(0.0, 1.0, 5)

    def test_default_grids(self):
        g = default_grid()
        assert (g.lo, g.hi, g.n) == (-12.0, 12.0, 4097)


class TestGaussHermite:
    def test_normalized(self):
        r = gauss_hermite_rule(96)
        assert np.sum(r.weights) == pytest.approx(1.0, abs=1e-14)

    def test_gaussian_moments(self):
        # E[x^{2k}] = (2k-1)!! under the standard Gaussian
        r = gauss_hermite_rule(64)
        for k, expect in ((1, 1.0), (2, 3.0), (3, 15.0), (4, 105.0)):
            got = float(np.sum(r.weights * r.nodes ** (2 * k)))
            assert got == pytest.approx(expect, rel=1e-12)
        assert float(np.sum(r.weights * r.nodes)) == pytest.approx(0, abs=1e-13)

    def test_cached_and_read_only(self):
        r = gauss_hermite_rule(40)
        assert gauss_hermite_rule(40) is r
        assert gauss_hermite_rule(41) is not r
        for arr in (r.nodes, r.weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_refuses_rules_whose_weights_underflow(self):
        # numpy's hermegauss gives 370 positive weights, then from m = 371 on
        # weights that underflow to 0 or come out NaN
        w = gauss_hermite_rule(370).weights
        assert np.all(np.isfinite(w) & (w > 0))
        for m in (371, 400, 512):
            with pytest.raises(ParameterError, match="finite and positive"):
                gauss_hermite_rule(m)

    def test_exact_for_gaussian_exponential(self):
        # E[e^{t x}] = e^{t^2/2}
        r = gauss_hermite_rule(96)
        for t in (0.3, 1.0, 2.5):
            got = float(np.sum(r.weights * np.exp(t * r.nodes)))
            assert got == pytest.approx(np.exp(0.5 * t * t), rel=1e-12)


class Counting:
    """A closure that counts how often it is evaluated."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *xs):
        self.calls += 1
        return self.fn(*xs)


class TestClosureEvaluatedOnce:
    def test_from_callable_1d(self, grid):
        fn = Counting(lambda x: np.exp(-0.5 * x ** 2))
        f = GridField.from_callable(grid, fn)
        assert fn.calls == 1
        np.testing.assert_array_equal(f.values, np.exp(-0.5 * grid.points ** 2))

    def test_from_log(self, grid):
        log = Counting(lambda x: -0.5 * x ** 2 - 3.0)
        f = GridField.from_callable(grid, log_fn=log,
                                    d2log_fn=lambda x: np.full_like(x, -1))
        assert log.calls == 1
        np.testing.assert_array_equal(f.values,
                                      np.exp(-0.5 * grid.points ** 2 - 3.0))
        assert f.analytic_d2log is not None and f.analytic_dlog is None
        # off the grid it is the exp of its log closure, not interpolated
        assert float(f(0.123)) == np.exp(-0.5 * 0.123 ** 2 - 3.0)

    def test_field_from_family(self, grid):
        # one pass at the nodes gives the values and both node arrays
        class CountingGaussian(LogQuad):
            calls = 0

            def _pass(self, x, order=2):
                if np.size(x) == grid.n:
                    type(self).calls += 1
                return super()._pass(x, order)

        q = LogQuad.gaussian(2.0)
        f = field_from_family(grid, CountingGaussian(q.a, q.b, q.c))
        f.grid_log(), f.grid_d2log()
        assert CountingGaussian.calls == 1
        np.testing.assert_array_equal(f.values, q(grid.points))
        np.testing.assert_array_equal(f.grid_log(), q.log_at(grid.points))
        np.testing.assert_array_equal(f.grid_d2log(),
                                      q.d2log(grid.points[2:-2]))

    def test_needs_values_or_closure(self, grid):
        with pytest.raises(ParameterError):
            GridField(grid)

    def test_values_are_not_a_constructor_argument(self, grid):
        # a field is an exact function: its values are its closure's one
        # evaluation at the nodes, never handed in
        with pytest.raises(TypeError):
            GridField(grid, values=np.ones(grid.n))


class TestGridField:
    def test_from_callable_roundtrip(self, grid):
        f = GridField.from_callable(grid, lambda x: np.exp(-0.5 * x ** 2))
        assert f(0.3) == pytest.approx(np.exp(-0.045), rel=1e-12)

    def test_dlog_needs_its_closure(self, grid):
        # no difference quotient stands in for a missing (log f)'
        for f in (GridField.from_callable(grid,
                                          lambda x: np.exp(-0.5 * x ** 2)),
                  GridField.from_callable(grid, log_fn=lambda x: -0.5 * x * x)):
            with pytest.raises(ParameterError):
                f.dlog(0.3)

    def test_grid_mass_is_the_trapezoid(self, grid):
        f = GridField.from_callable(grid, lambda x: np.exp(-0.5 * x ** 2))
        assert f.grid_mass == float(np.trapezoid(f.values, dx=grid.spacing))
        assert f.grid_mass == pytest.approx(np.sqrt(2 * np.pi), rel=1e-12)

    def test_log_of_values_only_field(self, grid):
        vals = np.exp(-0.5 * grid.points ** 2)
        f = GridField.from_callable(grid, lambda x: np.interp(
            x, grid.points, vals, left=0.0, right=0.0))
        assert float(f.log(0.5)) == pytest.approx(-0.125, abs=1e-5)

    def test_log_of_a_value_closure(self, grid):
        # without a log closure, log f is the log of the value closure, and
        # -inf, without a warning, where f vanishes or is negative
        f = GridField.from_callable(
            grid, lambda x: np.exp(-0.5 * x ** 2) * np.sign(1.0 - x))
        np.testing.assert_allclose(f.log(np.array([0.5, 1.0, 2.0])),
                                   [-0.125, -np.inf, -np.inf], rtol=1e-15)

    @given(x=st.floats(-10, 10))
    @settings(max_examples=30, deadline=None)
    def test_interpolation_between_nodes(self, x):
        g = default_grid()
        f = GridField.from_callable(g, lambda t: np.sin(t))
        assert float(f(x)) == pytest.approx(np.sin(x), abs=1e-5)

    def test_node_arrays_by_source(self, grid):
        # kept after the first read, read-only, and each from the source
        # flows.curvature documents: the d2log closure; a field without one
        # is refused, no difference quotient stands in for it
        x = grid.points
        log = Counting(lambda t: -0.5 * t * t)
        f = GridField.from_callable(grid, log_fn=log,
                                    d2log_fn=lambda t: np.full_like(t, -1.0))
        assert f.grid_log() is f.grid_log() and log.calls == 1
        np.testing.assert_array_equal(f.grid_log(), -0.5 * x * x)
        np.testing.assert_array_equal(f.grid_d2log(), np.full(grid.n - 4, -1.0))
        g = GridField.from_callable(grid, lambda t: np.exp(-0.5 * t * t))
        with pytest.raises(ParameterError):
            g.grid_d2log()
        for arr in (f.grid_log(), f.grid_d2log(), g.grid_log()):
            with pytest.raises(ValueError):
                arr[0] = 0.0
