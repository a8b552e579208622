import logging
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gauss_deficit import families, flows
from gauss_deficit.families import (LogQuad, field_from_family,
                                    gaussian_field, symmetric_mixture)
from gauss_deficit.flows import (T_STAR, certify_matrix, curvature,
                                 fp_evolve, fp_measure, moments,
                                 preservation_trace, semi_log_concave,
                                 semi_log_convex)
from gauss_deficit.inequalities import (make_fp_input, make_logconcave_input,
                                        make_talagrand_input)
from gauss_deficit.numerics import (Grid1D, GridField, ParameterError,
                                    TruncationError, logsumexp)


class TestFPEvolve:
    def test_gaussian_stays_gaussian(self, grid):
        # variance e^{-2t} v0 + (1 - e^{-2t}) beta
        v0 = gaussian_field(grid, 0.7)
        beta, t = 2.0, 0.45
        vt = fp_evolve(v0, beta, t)
        var = np.exp(-2 * t) * 0.7 + (1 - np.exp(-2 * t)) * beta
        ref = gaussian_field(grid, var)
        np.testing.assert_allclose(vt.values, ref.values, rtol=1e-9,
                                   atol=1e-12)

    def test_mass_conserved(self, grid):
        v0 = field_from_family(grid, symmetric_mixture(2.0, 1.0))
        vt = fp_evolve(v0, 2.0, 0.8)
        assert vt.grid_mass == pytest.approx(1.0, abs=1e-9)

    def test_long_time_limit_is_gamma_beta(self, grid):
        v0 = field_from_family(grid, symmetric_mixture(1.0, 1.0))
        vt = fp_evolve(v0, 2.0, 8.0)
        ref = gaussian_field(grid, 2.0)
        np.testing.assert_allclose(vt.values, ref.values, atol=1e-7)

    def test_tagged_source_flows_its_exact_mass(self, grid):
        # a Gaussian at 10 loses 2.3 % of its mass past the grid end; the
        # drift check compares v_t with the source's exact mass, as for the
        # untagged closure of the same density
        q = LogQuad.gaussian(1.0, 10.0)
        tagged = field_from_family(grid, q)
        untagged = GridField.from_callable(grid, q.__call__, log_fn=q.log_at)
        vt, ut = fp_evolve(tagged, 1.0, 1.0), fp_evolve(untagged, 1.0, 1.0)
        assert vt.grid_mass == pytest.approx(ut.grid_mass, rel=1e-12)
        np.testing.assert_allclose(vt.values, ut.values, rtol=1e-12,
                                   atol=1e-300)

    def test_tagged_source_leaving_the_grid_raises(self, grid):
        # v_t centred at 11.3 with unit variance: a quarter of it is past 12
        v0 = field_from_family(grid, LogQuad.gaussian(1.0, 11.5))
        with pytest.raises(TruncationError, match="mass drift"):
            fp_evolve(v0, 1.0, 0.02)

    def test_rejects_negative_time(self, grid):
        v0 = gaussian_field(grid, 1.0)
        with pytest.raises(ParameterError):
            fp_evolve(v0, 2.0, -0.1)


class TestMeasureSpec:
    """A finite measure as fp_measure takes it: atoms and weights."""

    def test_holds_float_arrays(self, grid):
        # integer atoms and weights flow as the floats they stand for
        v = fp_measure([1], [1], 1.0, 0.5, grid)
        ref = fp_measure(np.array([1.0]), np.array([1.0]), 1.0, 0.5, grid)
        np.testing.assert_array_equal(v.values, ref.values)

    @pytest.mark.parametrize("points,weights", [
        ([0.0, 1.0], [1.0]),             # mismatched shapes
        ([[0.0, 1.0]], [[0.5, 0.5]]),    # not 1-D
        ([0.0, 1.0], [1.5, -0.5]),       # a negative weight
        ([0.0, 1.0], [1.0, np.inf]),     # infinite mass
    ])
    def test_refused_at_construction(self, grid, points, weights):
        # refused before the flow's own checks, which these pass
        with pytest.raises(ParameterError, match="points|weights"):
            fp_measure(points, weights, 1.0, 0.5, grid)


def _padded_lattice(src, pad):
    """The source lattice with ``pad`` nodes past each grid end, and the
    source there: the grid values inside, the closure outside."""
    g = src.grid
    ys = g.lo + g.spacing * np.arange(-pad, g.n + pad)
    vals = np.exp(src.log(ys))
    vals[pad:pad + g.n] = src.values
    return ys, vals


def _kernel_reference(src, beta, t, x):
    """The grid-density flow as an exp-kernel matrix times the trapezoid
    weights of the source lattice, padded past the grid to three times its
    width: every atom weighs the spacing."""
    w = beta * (1.0 - np.exp(-2.0 * t))
    ys, vals = _padded_lattice(src, src.grid.n - 1)
    K = np.exp(-(x[:, None] - np.exp(-t) * ys) ** 2 / (2 * w))
    return K @ (src.grid.spacing * vals / np.sqrt(2 * np.pi * w))


def _untagged_gaussian(grid, beta):
    q = LogQuad.gaussian(beta)
    return GridField.from_callable(grid, q.__call__, log_fn=q.log_at)


def _nodal(grid, vals):
    """The node data vals as a value closure with no log closure: linear
    between the nodes and 0 past the grid."""
    return GridField.from_callable(
        grid, lambda x: np.interp(x, grid.points, vals, left=0.0, right=0.0))


def _record_passes(monkeypatch, sizes, orders=(0, 1, 2)):
    """The families that LogQuad._pass evaluates, to the given orders, on
    point sets of the given sizes, in order."""
    seen, one_pass = [], LogQuad._pass

    def recording(fam, x, order=2, **kw):
        if np.size(x) in sizes and order in orders:
            seen.append(fam)
        return one_pass(fam, x, order, **kw)

    monkeypatch.setattr(LogQuad, "_pass", recording)
    return seen


def _record_levels(monkeypatch):
    """The number of atoms with mass in each level that flows._lattice_pass
    evaluates at the nodes, in order."""
    seen, one_pass = [], flows._lattice_pass

    def recording(x, points, logw, *args):
        seen.append(int(np.count_nonzero(logw > -np.inf)))
        return one_pass(x, points, logw, *args)

    monkeypatch.setattr(flows, "_lattice_pass", recording)
    return seen


class TestGridDensityFlow:
    @pytest.mark.parametrize("beta,t", [(0.5, 0.2), (2.0, 0.5), (1.0, 1.0)])
    def test_matches_kernel_quadrature(self, beta, t):
        g = Grid1D(-12.0, 12.0, 513)
        src = _untagged_gaussian(g, 0.8)
        vt = fp_evolve(src, beta, t)
        np.testing.assert_allclose(vt.values,
                                   _kernel_reference(src, beta, t, g.points),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("beta", [0.5, 2.0])
    def test_gaussian_curvature_is_exact(self, beta):
        # gamma_beta is stationary: (log v_t)'' = -1/beta at every t, here
        # on a grid whose n - 1 = 5460 is not a power of two
        grid = Grid1D(-16.0, 16.0, 5461)
        x = grid.points[np.abs(grid.points) < 8]
        v0 = _untagged_gaussian(grid, beta)
        for t in (0.05, 0.2, 0.5, 1.0):
            vt = fp_evolve(v0, beta, t)
            np.testing.assert_allclose(vt.tag.d2log(x), -1.0 / beta,
                                       rtol=0, atol=1e-9)

    def test_snapshot_keeps_its_level_arrays(self, grid, monkeypatch):
        # the field and its certificate read the merged level arrays: the
        # snapshot's family is never evaluated at the nodes, and each atom
        # of the finest level is evaluated there once, on one level
        src = _untagged_gaussian(grid, 0.5)
        node_passes = _record_passes(monkeypatch, (grid.n, grid.n - 4))
        levels = _record_levels(monkeypatch)
        vt = fp_evolve(src, 0.5, 0.05)
        semi_log_concave(vt, 0.5, "concave")
        assert len(levels) > 1  # refined past the coarsest level
        assert not node_passes  # no LogQuad pass at the nodes at all
        assert sum(levels) == vt.tag.a.size

    def test_gaussian_preservation_margins_vanish(self, grid):
        # the curvature comes from posterior moments taken about their mean,
        # so the exact margin 0 is met to rounding, not to a finite difference
        v0 = _untagged_gaussian(grid, 0.5)
        margins, _ = preservation_trace(v0, 0.5, "concave",
                                        (0.05, 0.2, 0.5, 1.0))
        np.testing.assert_allclose(margins, 0.0, atol=1e-12)

    @pytest.mark.parametrize("beta,kind", [(0.5, "concave"), (2.0, "convex")])
    def test_default_grid_margins_vanish_to_the_edge(self, grid, beta, kind):
        # a source cut off at the grid edge bent (log v_t)'' there: the
        # gamma_2 margin read -1.25 near x = -12
        v0 = _untagged_gaussian(grid, beta)
        margins, _ = preservation_trace(v0, beta, kind, (0.05, 0.2, 0.5, 1.0))
        np.testing.assert_allclose(margins, 0.0, atol=1e-9)

    def test_levels_match_full_padded_source(self, grid):
        rng = np.random.default_rng(11)
        src = make_logconcave_input(rng, 0.5, grid)
        beta, t = 0.5, 0.05
        vt = fp_evolve(src, beta, t)
        assert vt.tag.a.size < grid.n  # a strided level, not every node
        # the stride-1 source, padded until its ends weigh nothing
        ys, vals = _padded_lattice(src, 1024)
        q = LogQuad.gaussian(beta * (1.0 - np.exp(-2.0 * t)),
                             np.exp(-t) * ys)
        full = LogQuad(q.a, q.b, q.c + np.log(grid.spacing * vals))
        np.testing.assert_allclose(vt.values, full(grid.points), rtol=1e-12,
                                   atol=0)

    def test_mass_past_the_grid_is_kept(self, grid):
        # 2.3 % of gamma(. - 10) lies past x = 12; by t = 1 the flow has
        # carried it inside, so v_t holds the whole mass on the grid
        q = LogQuad.gaussian(1.0, 10.0)
        src = GridField.from_callable(grid, q.__call__, log_fn=q.log_at)
        assert src.grid_mass == pytest.approx(0.9772, abs=1e-4)
        vt = fp_evolve(src, 1.0, 1.0)
        assert vt.grid_mass == pytest.approx(1.0, abs=1e-9)
        margins, _ = preservation_trace(src, 1.0, "concave", [1.0])
        assert margins[0] == pytest.approx(0.0, abs=1e-9)

    def test_values_only_source_on_levels(self, grid):
        # node values read by a value closure, 0 past the grid, with no log
        # closure: a smooth source that has decayed by the grid edge still
        # settles on a strided level
        src = _nodal(grid, gaussian_field(grid, 0.5).values)
        vt = fp_evolve(src, 0.5, 0.5)
        assert vt.tag.a.size < grid.n
        np.testing.assert_allclose(vt.values,
                                   gaussian_field(grid, 0.5).values,
                                   rtol=1e-10, atol=1e-300)

    def test_source_between_coarse_nodes(self, grid):
        # zero at every node of the coarsest level, which then has no mass
        x = grid.points
        vals = np.maximum(1.0 - ((x - 0.2) / 0.1) ** 2, 0.0)
        src = _nodal(grid, vals / _nodal(grid, vals).grid_mass)
        vt = fp_evolve(src, 1.0, 0.5)
        assert vt.grid_mass == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("nodes", [[2048], [2048, 2080]])
    def test_isolated_nodes_flow_as_atoms(self, grid, nodes):
        # no odd atom below stride 32 has mass, so those levels halve the
        # level before them down to stride 1; the second node is a one-atom
        # odd group at stride 32
        vals = np.zeros(grid.n)
        vals[nodes] = 1.0 / grid.spacing
        beta, t = 1.0, 0.5
        w = beta * (1.0 - np.exp(-2.0 * t))
        q, mass, (logv, d2) = flows._grid_density_family(
            _nodal(grid, vals), beta, t)
        assert q.a.size == len(nodes) and mass == pytest.approx(len(nodes))
        ref = LogQuad.gaussian(w, np.exp(-t) * grid.points[nodes])
        np.testing.assert_allclose(logv, ref.log_at(grid.points), rtol=1e-14,
                                   atol=1e-13)
        np.testing.assert_allclose(d2, ref.d2log(grid.points), rtol=0,
                                   atol=1e-12 * (1.0 + 1.0 / w))

    def test_growing_closure_raises(self, monkeypatch):
        # log v0 = x^2 outgrows the kernel: no pad makes the edge negligible,
        # which the pad checks find at the two end nodes, with no pass at
        # every node
        g = Grid1D(-1.0, 1.0, 65)
        src = GridField.from_callable(g, lambda x: np.exp(x * x),
                                      log_fn=lambda x: x * x)
        node_passes = _record_passes(monkeypatch, (g.n,))
        levels = _record_levels(monkeypatch)
        checks, edge_weight = [], flows._edge_weight

        def recording(mu, logw, w, x):
            checks.append(np.size(x))
            return edge_weight(mu, logw, w, x)

        monkeypatch.setattr(flows, "_edge_weight", recording)
        with pytest.raises(TruncationError, match="does not decay"):
            fp_evolve(src, 1.0, 1.0)
        assert len(checks) > 1 and not node_passes and not levels

    @pytest.mark.parametrize("n", [4097, 65])
    def test_massless_source_raises(self, n):
        # no mass at any stride, the first level being stride 1 on 65 nodes
        g = Grid1D(-12.0, 12.0, n)
        with pytest.raises(ParameterError, match="no mass"):
            fp_evolve(_nodal(g, np.zeros(n)), 1.0, 0.5)

    @pytest.mark.parametrize("var", [4.0, 8.0])
    def test_comb_missed_by_the_coarse_level_settles_its_pad(self, grid,
                                                              caplog, var):
        # e^{-x^2/var} set to 0 on the coarse lattice, past the grid too:
        # the coarsest level has no mass, and the pad is settled on the
        # first finer level that has; at the end nodes v_t is then the flow
        # of the whole closure, as on a grid twice as wide
        k0 = flows._coarsest_stride(grid.n - 1)

        def comb(x):
            u = (np.asarray(x, float) - grid.lo) / grid.spacing
            tooth = (np.abs(u - np.rint(u)) < 1e-6) & (np.rint(u) % k0 == 0)
            return np.where(tooth, 0.0, np.exp(-x * x / var))

        wide = Grid1D(2.0 * grid.lo, 2.0 * grid.hi, 2 * grid.n - 1)
        with caplog.at_level(logging.DEBUG, logger="gauss_deficit.flows"):
            vt = fp_evolve(GridField.from_callable(grid, comb), 2.0, 0.05)
        checks = int(re.search(r"(\d+) pad checks", caplog.text).group(1))
        assert checks >= 1
        ref = fp_evolve(GridField.from_callable(wide, comb), 2.0, 0.05)
        ends = np.searchsorted(wide.points, [grid.lo, grid.hi])
        np.testing.assert_allclose(vt.values[[0, -1]], ref.values[ends],
                                   rtol=1e-12, atol=0)

    def test_resolution_logged(self, grid, caplog):
        with caplog.at_level(logging.DEBUG, logger="gauss_deficit.flows"):
            fp_evolve(_untagged_gaussian(grid, 2.0), 2.0, 0.5)
        assert re.search(r"pad \d+ nodes, stride \d+, level gap \S+, pairs "
                         r"evaluated [0-9.]+, dropped-term bound \S+$",
                         caplog.text, re.MULTILINE)

    def test_levels_and_pairs_logged(self, grid, caplog):
        # gamma_0.5 at t = 0.05 settles its pad in three checks and ends at
        # stride 8: the coarsest level and three odd groups, each evaluated
        # on the nodes near its atoms
        with caplog.at_level(logging.DEBUG, logger="gauss_deficit.flows"):
            fp_evolve(_untagged_gaussian(grid, 0.5), 0.5, 0.05)
        levels, checks, stride, share = re.search(
            r"(\d+) levels, (\d+) pad checks, pad \d+ nodes, stride (\d+), "
            r".*pairs evaluated (\S+),", caplog.text).groups()
        assert (int(levels), int(checks), int(stride)) == (4, 3, 8)
        assert 0.0 < float(share) <= 0.40

    def test_compact_support_source(self, grid):
        vals = 0.75 * np.maximum(1.0 - grid.points ** 2, 0.0)
        src = _nodal(grid, vals / _nodal(grid, vals).grid_mass)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            vt = fp_evolve(src, 1.0, 0.5)
            hess = vt.tag.d2log(grid.points)
        assert vt.tag.a.size == np.count_nonzero(vals)  # zero nodes dropped
        assert np.all(np.isfinite(vt.values)) and np.all(vt.values > 0)
        assert np.all(np.isfinite(hess))

    @pytest.mark.parametrize("t", [20.0, 30.0])
    def test_long_flow_pads_to_the_source(self, grid, t):
        # the kernel reaches e^t sqrt(w) / h nodes past the grid, 1.2e11 at
        # t = 20, but the bumped Gaussian lies 745 below its peak some 60-80
        # past the grid: the pad stops there, not at the kernel's reach
        v0 = make_talagrand_input(np.random.default_rng(0), 2.0, grid)
        assert v0.tag is None
        tracemalloc.start()
        try:
            start = time.perf_counter()
            vt = fp_evolve(v0, 2.0, t)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0 and peak < 100e6
        # relaxed to gamma_2, carrying the source's mass
        mass = vt.tag.integral_lebesgue()
        np.testing.assert_allclose(vt.values,
                                   mass * gaussian_field(grid, 2.0).values,
                                   rtol=1e-7, atol=0)


def _full_pass(q, x):
    """log v and (log v)'' at x from every component of q: logsumexp and
    the posterior moments, taken on the blocks of LogQuad._pass and about
    their mid-points, so that only the order of the sums differs from that
    pass."""
    out = []
    step = max(1, families._CHUNK // q.a.size)
    for i in range(0, x.size, step):
        s = 0.5 * (x[i:i + step].min() + x[i:i + step].max())
        u = x[i:i + step] - s
        a, b, c = np.broadcast_arrays(*q._about(s))
        L = np.stack([u * u, u, np.ones_like(u)], axis=1) @ np.stack(
            [0.5 * a, b, c])
        # posterior weights normalised by their own sum: exp(L - log v)
        # would carry the rounding of log v, 1e-13 relative at log v = -700
        p = np.exp(L - L.max(axis=1, keepdims=True))
        p /= np.sum(p, axis=1, keepdims=True)
        logv = logsumexp(L, axis=-1)
        slope = u[:, None] * a + b
        mean = np.sum(p * slope, axis=1, keepdims=True)
        out.append((logv, p @ a + np.sum(p * (slope - mean) ** 2, axis=1)))
    return [np.concatenate(rows) for rows in zip(*out)]


def _built_families(monkeypatch, v0, beta, t):
    """Every family that _grid_density_family builds for v_t."""
    built, atoms = [], flows._atoms_family

    def recording(*args):
        built.append(atoms(*args))
        return built[-1]

    monkeypatch.setattr(flows, "_atoms_family", recording)
    flows._grid_density_family(v0, beta, t)
    return built


class TestBandedLevels:
    """An untagged snapshot builds one family, whose pass sums every atom;
    its levels are read at the nodes by _lattice_pass, each block summing
    only the atoms within 53 log 2 + log M of its largest exponent at the
    block's ends."""

    @pytest.mark.parametrize("t", [0.05, 0.2, 0.5, 1.0])
    @pytest.mark.parametrize("name", ["gamma0.5", "gamma2", "logconcave"])
    def test_matches_full_evaluation(self, grid, monkeypatch, name, t):
        beta = 2.0 if name == "gamma2" else 0.5
        v0 = (make_logconcave_input(np.random.default_rng(3), 0.5, grid)
              if name == "logconcave" else _untagged_gaussian(grid, beta))
        w = beta * (1.0 - np.exp(-2.0 * t))
        x = grid.points
        # the snapshot's family alone: the pad checks build none
        (q,) = _built_families(monkeypatch, v0, beta, t)
        logv, _, d2 = q._pass(x, 2)
        full_logv, full_d2 = _full_pass(q, x)
        # log v = top + log(s0) carries the last bits of the largest
        # exponent: 4.4e-16 where log v = -0.33, for the full pass too
        np.testing.assert_allclose(logv, full_logv, rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(d2, full_d2, rtol=0,
                                   atol=1e-12 * (1.0 + 1.0 / w))

    def test_heavy_far_atom_is_summed(self):
        # atoms centred on [-10, 10] at log-weight -700 but the last at 0:
        # with w = 19^2 / 1400 the heavy atom, 19 away, ties with the light
        # ones at x = -9, so the blocks about -9 must reach across the
        # lattice to it
        w = 361.0 / 1400.0
        t = -0.5 * np.log(1.0 - w)  # beta = 1
        points = np.exp(t) * np.linspace(-10.0, 10.0, 401)
        heavy = np.full(points.size, -700.0)
        heavy[-1] = 0.0
        x = np.linspace(-10.0, -8.0, 2049)
        q_heavy = flows._atoms_family(points, heavy, 1.0, t)
        logv, _, d2 = q_heavy._pass(x, 2)
        full_logv, full_d2 = _full_pass(q_heavy, x)
        np.testing.assert_allclose(logv, full_logv, rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(d2, full_d2, rtol=0,
                                   atol=1e-12 * (1.0 + 1.0 / w))

    def test_finest_level_evaluates_few_pairs(self, grid, caplog):
        with caplog.at_level(logging.DEBUG, logger="gauss_deficit.flows"):
            fp_evolve(_untagged_gaussian(grid, 0.5), 0.5, 0.05)
        share, bound = map(float, re.search(
            r"pairs evaluated (\S+), dropped-term bound (\S+)$",
            caplog.text, re.MULTILINE).groups())
        assert share <= 0.40
        assert 0.0 < bound <= 2.0 ** -53


def _merge_source(name, grid):
    """(source, beta) for the merged-level checks."""
    if name == "gamma0.5":
        return _untagged_gaussian(grid, 0.5), 0.5
    if name == "gamma2":
        return _untagged_gaussian(grid, 2.0), 2.0
    if name == "gamma2-5461":
        return _untagged_gaussian(Grid1D(-16.0, 16.0, 5461), 2.0), 2.0
    if name == "logconcave":
        return make_logconcave_input(np.random.default_rng(3), 0.5, grid), 0.5
    if name == "values-only":  # node values read by a value closure
        return _nodal(grid, gaussian_field(grid, 0.5).values), 0.5
    # between-coarse-nodes: zero at every node of the coarsest level
    vals = np.maximum(1.0 - ((grid.points - 0.2) / 0.1) ** 2, 0.0)
    k0 = flows._coarsest_stride(grid.n - 1)
    assert not np.any(vals[::k0]) and np.any(vals[::k0 // 2])
    return _nodal(grid, vals / _nodal(grid, vals).grid_mass), 1.0


class TestMergedLevels:
    """The level at stride k is the level at 2k, its weights halved, merged
    with the odd atoms: the merged (log v_t, (log v_t)'') is the finest
    family's own pass, to the level tolerance."""

    @pytest.mark.parametrize("t", [0.05, 0.2, 0.5, 1.0])
    @pytest.mark.parametrize("name", ["gamma0.5", "gamma2", "gamma2-5461",
                                      "logconcave", "values-only",
                                      "between-coarse-nodes"])
    def test_merge_matches_the_finest_pass(self, grid, monkeypatch, name, t):
        v0, beta = _merge_source(name, grid)
        x = v0.grid.points
        w = beta * (1.0 - np.exp(-2.0 * t))
        checks, edge_weight = [], flows._edge_weight

        def recording(mu, logw, w_, at):
            checks.append((mu, logw, edge_weight(mu, logw, w_, at)))
            return checks[-1][-1]

        monkeypatch.setattr(flows, "_edge_weight", recording)
        # the levels' passes at the nodes
        levels = _record_levels(monkeypatch)
        q, _, (logv, d2) = flows._grid_density_family(v0, beta, t)
        assert len(levels) > 1  # at least one merge
        assert sum(levels) == q.a.size
        full_logv, _, full_d2 = q._pass(x, 2)
        tol = 1e-12 * (1.0 + 1.0 / w)
        np.testing.assert_allclose(logv, full_logv, rtol=0, atol=tol)
        np.testing.assert_allclose(d2, full_d2, rtol=0, atol=tol)
        # each pad check, read at the two end nodes, is the largest log
        # weight of the outermost atoms over every node, log v_t at every
        # node read from the pass of the checked atoms' family
        # every source is padded: the pad settles on the coarsest level, or
        # on the first finer level with mass when the coarsest has none
        assert checks
        for mu, logw, got in checks:
            keep = logw > -np.inf
            checked = LogQuad.gaussian(w, mu[keep])
            logv_x = LogQuad(checked.a, checked.b,
                             checked.c + logw[keep])._pass(x, 0)[0]
            d = x - mu[[0, -1], None]
            every = np.max(logw[[0, -1], None]
                           - 0.5 * np.log(2.0 * np.pi * w)
                           - d * d / (2.0 * w) - logv_x)
            assert got == pytest.approx(every, rel=1e-13, abs=1e-12)


def _lattice_source(name, grid):
    """(source, beta) for the lattice kernel's oracle."""
    if name == "narrow":  # log v_t < -700 at the far nodes
        return _untagged_gaussian(grid, 0.01), 0.5
    if name == "isolated-nodes":
        vals = np.zeros(grid.n)
        vals[[2048, 2080]] = 1.0 / grid.spacing
        return _nodal(grid, vals), 1.0
    return _merge_source(name, grid)


def _kernel_levels(monkeypatch, v0, beta, t):
    """(atoms, their log weights, log v_t, (log v_t)'') of every level that
    flows._lattice_pass reads at the nodes for the flow of v0."""
    seen, one_pass = [], flows._lattice_pass

    def recording(x, points, logw, beta, t):
        out = one_pass(x, points, logw, beta, t)
        seen.append((points, logw, out[0][0].copy(), out[0][2].copy()))
        return out

    monkeypatch.setattr(flows, "_lattice_pass", recording)
    flows._grid_density_family(v0, beta, t)
    return seen


class TestLatticePass:
    """Each level that _lattice_pass reads at the nodes is the full pass of
    its atoms' family, within 1e-12 (1 + 1/w) in log v_t and (log v_t)''."""

    @staticmethod
    def _check(levels, x, beta, t):
        assert levels
        tol = 1e-12 * (1.0 + 1.0 / (beta * (1.0 - np.exp(-2.0 * t))))
        for points, logw, logv, d2 in levels:
            q = flows._atoms_family(points, logw, beta, t)
            full_logv, full_d2 = _full_pass(q, x)
            np.testing.assert_allclose(logv, full_logv, rtol=0, atol=tol)
            np.testing.assert_allclose(d2, full_d2, rtol=0, atol=tol)

    @pytest.mark.parametrize("t", [0.05, 0.2, 0.5, 1.0])
    @pytest.mark.parametrize("name", ["gamma0.5", "gamma2", "logconcave"])
    def test_matches_the_full_pass(self, grid, monkeypatch, name, t):
        v0, beta = _lattice_source(name, grid)
        levels = _kernel_levels(monkeypatch, v0, beta, t)
        self._check(levels, grid.points, beta, t)

    @pytest.mark.parametrize("name,t", [("between-coarse-nodes", 0.05),
                                        ("between-coarse-nodes", 0.5),
                                        ("isolated-nodes", 0.5),
                                        ("narrow", 0.05)])
    def test_zero_weights_and_far_tails(self, grid, monkeypatch, name, t):
        # atoms of zero weight inside the windows, and far nodes where every
        # atom's kernel is below e^-700: each block is read against the
        # largest of its atoms' exponents at its centre
        v0, beta = _lattice_source(name, grid)
        levels = _kernel_levels(monkeypatch, v0, beta, t)
        if name == "narrow":
            assert min(np.min(logv) for *_, logv, _ in levels) < -700.0
        self._check(levels, grid.points, beta, t)

    def test_kernel_narrower_than_a_block(self, monkeypatch):
        # sqrt(w) is a third of the spacing: one atom step from the window's
        # centre already tilts the block's end row past _MAX_TILT, so the
        # blocks take fewer rows.  Between the atoms (log v_t)'' reaches
        # 180 / w, and the full pass, about the mid-points of wide blocks,
        # loses 1e-10 in log v_t: the reference takes every (node, atom)
        # exponent directly
        g = Grid1D(-4.0, 4.0, 513)
        x, beta, t = g.points, 0.5, 2e-5
        w = beta * (1.0 - np.exp(-2.0 * t))
        levels = _kernel_levels(monkeypatch, _untagged_gaussian(g, beta),
                                beta, t)
        for points, logw, logv, d2 in levels:
            mu = np.exp(-t) * points
            tilt = (mu[1] - mu[0]) * g.spacing / w
            assert tilt * (flows._ROWS // 2) > flows._MAX_TILT
            L = (logw - 0.5 * np.log(2.0 * np.pi * w)
                 - 0.5 * (x[:, None] - mu) ** 2 / w)
            full_logv = logsumexp(L, axis=-1)
            p = np.exp(L - full_logv[:, None])
            slope = (mu - x[:, None]) / w
            mean = np.sum(p * slope, axis=1, keepdims=True)
            full_d2 = np.sum(p * (slope - mean) ** 2, axis=1) - 1.0 / w
            np.testing.assert_allclose(logv, full_logv, rtol=0,
                                       atol=1e-12 * (1.0 + 1.0 / w))
            np.testing.assert_allclose(d2, full_d2, rtol=1e-12,
                                       atol=1e-12 * (1.0 + 1.0 / w))


class TestFPClassMember:
    def test_gaussian_seed_variance(self, grid):
        # flowing gamma_a for time t* = (1/2) log 2 gives variance
        # e^{-2 t*} a + (1 - e^{-2 t*}) 2 beta = a/2 + beta
        a, beta = 1.0, 2.0
        v = fp_evolve(gaussian_field(grid, a), 2.0 * beta, T_STAR)
        ref = gaussian_field(grid, beta + a / 2)
        np.testing.assert_allclose(v.values, ref.values, rtol=1e-8,
                                   atol=1e-12)

    def test_dirac_seed(self, grid):
        # a point mass flows to a Gaussian of variance (1 - e^{-2 t*}) 2 beta
        beta = 1.5
        v = fp_measure([0.7], [1.0], 2.0 * beta, T_STAR, grid)
        var = (1 - np.exp(-2 * T_STAR)) * 2 * beta
        mean = np.exp(-T_STAR) * 0.7
        ref = field_from_family(grid, LogQuad.gaussian(var, mean))
        np.testing.assert_allclose(v.values, ref.values, rtol=1e-10,
                                   atol=1e-14)

    def test_members_are_semi_log_convex(self, grid):
        rng = np.random.default_rng(0)
        for _ in range(3):
            pts = rng.uniform(-3, 3, size=4)
            w = rng.dirichlet(np.ones(4))
            v = fp_measure(pts, w, 4.0, T_STAR, grid)
            assert semi_log_convex(v, 2.0, "convex").passed


class TestCertify:
    def test_gaussian_certificates(self, grid):
        g2 = gaussian_field(grid, 2.0)
        # (log gamma_2)'' = -1/2: the curvature floor -1/beta is met with
        # equality at beta = 2, met strictly for beta < 2, violated beyond
        assert curvature(g2) == pytest.approx((-0.5, -0.5), abs=1e-6)
        assert semi_log_convex(g2, 2.0, "c").margin == pytest.approx(
            0, abs=1e-6)
        assert semi_log_convex(g2, 1.0, "c").passed
        assert not semi_log_convex(g2, 4.0, "c").passed
        # concave side: -1/2 <= -1/beta needs beta >= 2
        assert semi_log_concave(g2, 4.0, "c").passed
        assert not semi_log_concave(g2, 1.0, "c").passed
        # each check carries the name it is reported under and its gate
        check = semi_log_convex(g2, 4.0, "beta-semi-log-subharmonic")
        assert (check.name, check.tol) == ("beta-semi-log-subharmonic",
                                           1e-4 / 4.0)

    def test_subharmonic_equals_convex_in_1d(self, grid):
        # subharmonic and convex are one lower bound on (log v)'', read as
        # the node array's extremes, and the margins are those extremes
        # offset by 1/beta to the last bit
        v = field_from_family(grid, symmetric_mixture(1.0, 1.0))
        d2 = v.grid_d2log()
        assert curvature(v) == (np.min(d2), np.max(d2))
        assert semi_log_convex(v, 2.0, "c").margin == np.min(d2 + 0.5)
        assert semi_log_concave(v, 2.0, "c").margin == np.min(-0.5 - d2)

    def test_unknown_kind_rejected(self, grid):
        # the kind strings are preservation_trace's alone; an unknown one
        # is refused before the flow runs
        with pytest.raises(ParameterError, match="bogus"):
            preservation_trace(gaussian_field(grid, 1.0), 2.0, "bogus",
                               [0.1])

    def test_matrix_certificate_diagonal(self, grid):
        b1, b2 = 2.0, 3.0
        v1, v2 = gaussian_field(grid, b1), gaussian_field(grid, b2)
        B = np.diag([b1, b2])
        assert certify_matrix(v1, v2, B, "convex").passed
        assert certify_matrix(v1, v2, 0.5 * B, "convex").passed  # weaker floor
        assert not certify_matrix(v1, v2, 2.0 * B, "convex").passed

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matrix_margin_from_factor_extremes(self, seed):
        # the worst eigenvalue of diag(h1(x1), h2(x2)) + B^{-1} over the
        # full mesh of interior point pairs, for a non-diagonal SPD B
        grid = Grid1D(-12.0, 12.0, 513)
        rng = np.random.default_rng(seed)
        v1 = make_fp_input(rng, 2.0, grid)
        v2 = make_fp_input(rng, float(rng.uniform(1.2, 4.0)), grid)
        A = rng.normal(size=(2, 2))
        B = A @ A.T + 0.5 * np.eye(2)
        h1, h2 = (v.grid_d2log() for v in (v1, v2))
        mesh = np.zeros((h1.size, h2.size, 2, 2))
        mesh[..., 0, 0] = h1[:, None]
        mesh[..., 1, 1] = h2[None, :]
        eigs = np.linalg.eigvalsh(mesh + np.linalg.inv(B))
        convex = certify_matrix(v1, v2, B, "convex").margin
        concave = certify_matrix(v1, v2, B, "concave").margin
        assert convex == pytest.approx(eigs[..., 0].min(), abs=1e-12)
        assert concave == pytest.approx(-eigs[..., 1].max(), abs=1e-12)


class TestPreservation:
    def test_margins_along_flow(self, grid):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-2, 2, size=3)
        v0 = fp_measure(pts, np.ones(3) / 3, 4.0, T_STAR, grid)
        times = [0.05, 0.2, 0.8]
        margins, universal = preservation_trace(v0, 2.0, "convex", times)
        assert np.all(margins >= -1e-4)
        assert np.all(universal >= -1e-4)

    def test_universal_bound_from_rough_start(self, grid):
        # even a strongly non-convex start satisfies the universal bound
        v0 = field_from_family(grid, symmetric_mixture(3.0, 0.25))
        _, universal = preservation_trace(v0, 2.0, "convex", [0.1, 0.5])
        assert np.all(universal >= -1e-4)


class TestCovariance:
    def test_untagged_moments_are_normalised(self, grid):
        # mass 1 + 9e-7 passes check_density; the trapezoid moments are
        # normalised by it, as the tag's closed form is
        q = LogQuad.gaussian(2.0, 1.0)
        q = LogQuad(q.a, q.b, q.c + np.log1p(9e-7))
        (m1, *tagged), (m2, *untagged) = (
            moments(field_from_family(grid, q)),
            moments(GridField.from_callable(grid, log_fn=q.log_at)))
        assert m2 == pytest.approx(m1, rel=1e-12)
        assert untagged == pytest.approx(tagged, abs=1e-12)
        assert untagged == pytest.approx([1.0, 2.0], abs=1e-12)

    def test_mixture_covariance(self, grid):
        v = field_from_family(grid, symmetric_mixture(2.0, 1.0))
        assert moments(v)[2] == pytest.approx(5.0, rel=1e-10)

    @given(a=st.floats(0.0, 4.0))
    @settings(max_examples=20, deadline=None)
    def test_mixture_covariance_formula(self, a):
        g = Grid1D(-12.0, 12.0, 1025)
        v = field_from_family(g, symmetric_mixture(a, 1.0))
        assert moments(v)[2] == pytest.approx(1 + a * a, rel=1e-9)
