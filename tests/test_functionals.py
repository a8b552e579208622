import ast
import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gauss_deficit.families import (LogQuad, field_from_family,
                                    gaussian_field, symmetric_mixture)
from gauss_deficit.flows import T_STAR, fp_evolve, fp_measure
from gauss_deficit.functionals import (_log_lp, entropy_fisher, log_hc_norm,
                                       log_ou_norm, log_ou_pairing,
                                       q_functional, sharp_constant, tilt)
from gauss_deficit.inequalities import (make_fp_input, make_logconcave_input,
                                        matrix_check)
from gauss_deficit.numerics import (EvaluationError, GridField,
                                    ParameterError, PositivityError,
                                    default_grid, gauss_hermite_rule)
from gauss_deficit.semigroups import ExponentTriple


def gaussian_relative_entropy_fisher(beta):
    """Closed forms for f = gamma_beta / gamma:
    Ent = (1/2)(beta - 1 - log beta), I = (beta - 1)^2 / beta."""
    ent = 0.5 * (beta - 1.0 - np.log(beta))
    fis = (beta - 1.0) ** 2 / beta
    return ent, fis


class TestEntropyFisher:
    @pytest.mark.parametrize("beta", [0.25, 0.5, 2.0, 4.0])
    def test_gaussian_closed_form(self, beta, grid, rule):
        f = tilt(LogQuad.gaussian(beta), 1.0, 1.0).field(grid)
        ef = entropy_fisher(f, rule)
        ent, fis = gaussian_relative_entropy_fisher(beta)
        assert ef.entropy == pytest.approx(ent, abs=1e-10)
        assert ef.fisher == pytest.approx(fis, abs=1e-9)

    def test_tensorization_2d(self, grid, rule):
        # Ent and I of (gamma_beta/gamma) (x) (gamma_beta/gamma)
        beta = 2.0
        g = gaussian_field(grid, beta)
        ef = matrix_check(g, g, np.diag([beta, beta]), "lsi",
                          gauss_hermite_rule(48)).params
        ent, fis = gaussian_relative_entropy_fisher(beta)
        assert ef["entropy"] == pytest.approx(2 * ent, abs=1e-8)
        assert ef["fisher"] == pytest.approx(2 * fis, abs=1e-7)

    def test_constant_has_zero_entropy(self, grid, rule):
        f = GridField.from_callable(
            grid, lambda x: np.full_like(np.asarray(x, float), 3.0),
            dlog_fn=lambda x: np.zeros_like(np.asarray(x, float)))
        ef = entropy_fisher(f, rule)
        assert ef.entropy == pytest.approx(0, abs=1e-12)
        assert ef.fisher == pytest.approx(0, abs=1e-12)


    def test_one_read_of_the_log_closure(self, grid, rule):
        # log f is read once at the nodes, f = exp(log f), and no other
        # closure of f but (log f)'
        calls = []
        fam = tilt(LogQuad.gaussian(2.0), 1.0, 1.0).tag

        def log(x):
            calls.append(np.shape(x))
            return fam.log_at(x)

        f = GridField.from_callable(grid, log_fn=log, dlog_fn=fam.dlog)
        calls.clear()
        ef = entropy_fisher(f, rule)
        assert calls == [rule.nodes.shape]
        want = entropy_fisher(tilt(LogQuad.gaussian(2.0), 1.0, 1.0), rule)
        assert ef == want

    def test_negative_field_is_refused(self, grid, rule):
        # a value closure may give signed data: one negative node refuses
        f = GridField.from_callable(
            grid, lambda x: np.exp(-0.5 * x * x) * np.sign(1.0 - x),
            dlog_fn=lambda x: -np.asarray(x, float))
        with pytest.raises(PositivityError):
            entropy_fisher(f, rule)


class TestLpNorm:
    def test_matches_closed_form(self, grid, rule):
        f = tilt(LogQuad.gaussian(2.0), 1.0, 1.0).field(grid)
        r = 1.5
        expect = np.exp(f.tag.log_lp_norm_gauss(r))
        got = np.exp(_log_lp(f.log(rule.nodes), r, rule.log_weights))
        assert got == pytest.approx(expect, rel=1e-10)


class TestSharpConstants:
    def test_lsi_gauss_value(self):
        # -(1/2)(log 2 - 1 + 1/2)
        sc = sharp_constant("lsi_gauss", beta=2.0)
        assert isinstance(sc, float)
        assert sc == pytest.approx(-0.0965735902799726, abs=1e-12)
        assert sharp_constant("dn", beta=2.0) == pytest.approx(-sc,
                                                               abs=1e-15)

    def test_lsi_gauss_tensorizes(self):
        # every constant that takes the dimension n, at n = 2 against n = 1:
        # a sum over the coordinates doubles, a product squares
        triple = ExponentTriple(2.0, 4.0)
        for name, kw, kind in (
                ("hc_ratio", dict(beta=3.0, triple=triple), "product"),
                ("lsi_gauss", dict(beta=3.0), "sum"),
                ("dn", dict(beta=3.0), "sum"),
                ("talagrand_gauss", dict(beta=3.0), "sum"),
                ("mikulincer", dict(beta=3.0), "sum"),
                ("beckner_b", dict(p=1.5, beta=3.0), "product"),
                ("hj_t", dict(tau=1.0, beta=3.0), "product")):
            one = sharp_constant(name, n=1, **kw)
            two = sharp_constant(name, n=2, **kw)
            assert one == sharp_constant(name, **kw), name  # n = 1 default
            want = 2 * one if kind == "sum" else one * one
            assert two == pytest.approx(want, rel=1e-14), name

    def test_hc_ratio_value(self):
        t = ExponentTriple(2.0, 4.0)
        sc = sharp_constant("hc_ratio", beta=2.0, triple=t)
        # beta^{1/(2p')} beta_s^{-1/(2q')} with beta_s = 5/3, p' = 2,
        # q' = 4/3
        expect = 2.0 ** 0.25 * (5.0 / 3.0) ** -0.375
        assert sc == pytest.approx(expect, rel=1e-14)
        assert sc == pytest.approx(0.9818931218485962, abs=1e-12)

    def test_talagrand_gauss(self):
        sc = sharp_constant("talagrand_gauss", beta=4.0)
        assert sc == pytest.approx(1 + 0.5 * np.log(4) - 2.0, rel=1e-14)

    def test_mikulincer_limit_and_comparison(self):
        assert sharp_constant("mikulincer", beta=1.0) == 0.0
        for beta in (0.2, 0.5, 0.9):
            tala = sharp_constant("talagrand_gauss", beta=beta)
            miku = sharp_constant("mikulincer", beta=beta)
            assert tala < miku

    def test_beckner_b(self):
        sc = sharp_constant("beckner_b", p=1.5, beta=2.0)
        # beta^{n/p'} (1 + (beta-1) 2/p')^{-n/2} with p' = 3
        expect = 2.0 ** (1.0 / 3.0) * (5.0 / 3.0) ** -0.5
        assert sc == pytest.approx(expect, rel=1e-14)

    def test_hj_t(self):
        sc = sharp_constant("hj_t", tau=1.0, beta=2.0)
        assert sc == pytest.approx((np.exp(-1) * 2.25) ** 0.25, abs=1e-10)
        assert sharp_constant("hj_t", tau=1.0, beta=1.0) == 1.0
        with pytest.raises(ParameterError):
            sharp_constant("hj_t", tau=1.0, beta=0.25)

    def test_hj_t_in_unit_interval(self):
        for beta in (1.5, 2.0, 5.0, 20.0):
            v = sharp_constant("hj_t", tau=1.0, beta=beta)
            assert 0.0 < v < 1.0

    def test_bl_h(self):
        s = 0.5 * np.log(3.0)
        sc = sharp_constant("bl_h", c1=0.5, c2=0.75, s=s)
        expect = (2 * np.pi) ** (1 - 0.625) * np.sqrt(1 - 1 / 3)
        assert sc == pytest.approx(expect, rel=1e-14)

    def test_unknown_name_rejected(self):
        with pytest.raises(ParameterError):
            sharp_constant("nope", beta=2.0)

    def test_non_finite_value_rejected(self):
        with pytest.raises(EvaluationError, match="not finite"):
            sharp_constant("dn", beta=np.inf)

    def test_missing_keyword_rejected(self):
        # the keywords are bound against the formula before it runs: the
        # error names the constant and the keywords it takes
        with pytest.raises(ParameterError,
                           match=r"hc_ratio takes beta, triple, n: .*triple"):
            sharp_constant("hc_ratio", beta=2.0)

    def test_unknown_keyword_rejected(self):
        with pytest.raises(ParameterError,
                           match=r"bl_h takes c1, c2, s: .*'n'"):
            sharp_constant("bl_h", c1=0.5, c2=0.5, s=0.3, n=1)
        with pytest.raises(ParameterError, match="lsi_gauss takes beta, n"):
            sharp_constant("lsi_gauss", beta=2.0, p=1.5)


class TestGross:
    def test_psi_prime0_matches_finite_difference(self, rule):
        # psi(s) = ||P_s[(gamma_beta/gamma)^{1/2}]||_{q(s)}, q(s) = 1 + e^{2s},
        # has psi'(0) = -(n/4)(log beta - 1 + 1/beta) = -D_n(beta)/2
        beta, h = 2.0, 1e-5

        def log_psi(s):
            return log_hc_norm(LogQuad.gaussian(beta), 2.0,
                               1.0 + np.exp(2.0 * s), s, rule)

        fd = (np.exp(log_psi(h)) - np.exp(log_psi(0.0))) / h
        assert -0.5 * sharp_constant("dn", beta=beta) == pytest.approx(
            fd, abs=1e-4)

    def test_hc_ratio_derivative_is_half_the_lsi_constant(self):
        # Gross: with p = 2 and q(s) = 1 + e^{2s}, d/ds log hc_ratio at
        # s = 0 is (1/2) lsi_gauss(beta); hc_ratio is 1 at s = 0.  The
        # one-sided quotient errs by O(s) (1.6e-4 relative at s = 1e-4);
        # its Richardson extrapolation from s and 2s by O(s^2), measured
        # at most 4.8e-8 relative
        s = 1e-4

        def log_ratio(u, beta):
            triple = ExponentTriple(2.0, 1.0 + np.exp(2.0 * u))
            return np.log(sharp_constant("hc_ratio", beta=beta,
                                         triple=triple))

        for beta in (0.5, 2.0, 4.0):
            richardson = (4.0 * log_ratio(s, beta)
                          - log_ratio(2.0 * s, beta)) / (2.0 * s)
            assert richardson == pytest.approx(
                0.5 * sharp_constant("lsi_gauss", beta=beta), rel=1e-7), beta


class TestQFunctional:
    def test_flat_at_gamma_beta(self, grid, rule):
        beta = 2.0
        v0 = field_from_family(grid, LogQuad.gaussian(beta))
        t = ExponentTriple(2.0, 4.0)
        q0, q1 = (q_functional(fp_evolve(v0, beta, s), t, rule)
                  for s in (0.0, 0.5))
        assert q1 == pytest.approx(q0, rel=1e-9)

    def test_monotone_on_fp_member(self, grid, rule):
        rng = np.random.default_rng(3)
        v0 = fp_measure(rng.uniform(-2, 2, 4), np.ones(4) / 4, 4.0, T_STAR,
                        grid)
        t = ExponentTriple(2.0, 4.0)
        qs = [q_functional(fp_evolve(v0, 2.0, s), t, rule)
              for s in (0.0, 0.3, 1.0)]
        assert qs[0] <= qs[1] + 1e-9 <= qs[2] + 2e-9


def untagged(v):
    """v's closures without its tag: the tilt takes its closure path."""
    return GridField.from_callable(v.grid, log_fn=v.log, dlog_fn=v.dlog,
                                   d2log_fn=v.analytic_d2log)


class TestTilt:
    x = np.linspace(-12.0, 12.0, 97)

    @pytest.mark.parametrize("fam, r, a", [
        (LogQuad.gaussian(2.0, 0.3), 0.5, 0.5),
        (LogQuad.gaussian(0.5), 2.0, -1.0),
        (symmetric_mixture(1.2, 0.8), 1.0, 1.0),
        (symmetric_mixture(0.5, 1.5), 1.0, -0.7)])
    def test_exact_tag_matches_closures(self, fam, r, a, grid):
        v = field_from_family(grid, fam)
        exact, closure = tilt(v, r, a), tilt(untagged(v), r, a)
        assert exact.tag is not None and closure.tag is None
        for name in ("log", "dlog", "d2log"):
            np.testing.assert_allclose(getattr(exact, name)(self.x),
                                       getattr(closure, name)(self.x),
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("make, beta", [(make_fp_input, 2.0),
                                            (make_logconcave_input, 0.5)])
    def test_closure_derivatives_match_richardson(self, make, beta, grid):
        v = make(np.random.default_rng(4), beta, grid)
        w = tilt(v, 0.7, 1.3)
        assert w.tag is None
        x, h = np.linspace(-6.0, 6.0, 41), 1e-3

        def d1(h):
            return (w.log(x + h) - w.log(x - h)) / (2.0 * h)

        def d2(h):
            return (w.log(x + h) - 2.0 * w.log(x) + w.log(x - h)) / h**2

        np.testing.assert_allclose(w.dlog(x), (4.0 * d1(h / 2) - d1(h)) / 3,
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(w.d2log(x), (4.0 * d2(h / 2) - d2(h)) / 3,
                                   rtol=0, atol=1e-6)

    @pytest.mark.parametrize("make, beta", [(make_fp_input, 2.0),
                                            (make_logconcave_input, 0.5)])
    def test_field_node_arrays_are_the_closures(self, make, beta, grid):
        # the closure path builds w's node arrays from v's, bit for bit
        # what its closures give at the nodes
        v = make(np.random.default_rng(4), beta, grid)
        w = tilt(v, 0.7, 1.3)
        f = w.field(grid)
        assert w.tag is None and f.nodes[0] is not None
        x = grid.points
        np.testing.assert_array_equal(f.grid_log(), w.log(x))
        np.testing.assert_array_equal(f.values, np.exp(w.log(x)))
        np.testing.assert_array_equal(f.grid_d2log(), w.d2log(x[2:-2]))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_round_trip(self, seed, grid):
        # gamma ((v/gamma)^{1/p})^p = v
        rng = np.random.default_rng(seed)
        for v in (make_fp_input(rng, 2.0, grid),
                  make_logconcave_input(rng, 0.5, grid)):
            p = float(rng.uniform(1.2, 3.0))
            f = tilt(v, 1.0 / p, 1.0 / p).field(grid)
            back = tilt(f, p, -1.0)
            np.testing.assert_allclose(back.log(grid.points),
                                       v.log(grid.points),
                                       rtol=1e-12, atol=1e-12)


class TestHCNorm:
    @pytest.mark.parametrize("beta, p, q", [
        (2.0, 2.0, 4.0), (0.5, 1.5, 6.0), (4.0, 1.2, 2.0),
        (2.0, 0.5, 0.25), (0.5, 0.5, -1.0), (2.0, -2.0, -4.0)])
    def test_closed_form_matches_gauss_hermite(self, beta, p, q, grid, rule):
        # forward (1 < p < q) and reverse (q < p < 1) exponents on gamma_beta
        s = ExponentTriple(p, q).s
        v = gaussian_field(grid, beta)
        assert tilt(v, 1.0 / p, 1.0 / p).tag is not None
        assert log_hc_norm(v, p, q, s, rule) == pytest.approx(
            log_hc_norm(untagged(v), p, q, s, rule), abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixture_mass_closed_form_matches_gauss_hermite(self, seed, grid,
                                                            rule):
        # the mass int v dx is the hc norm at (1, 1, 0): closed form for a
        # tag of any K, unchanged by P_s, and GH without the tag
        v = make_fp_input(np.random.default_rng(seed), 2.0, grid)
        mass = log_hc_norm(v, 1.0, 1.0, 0.0, rule)
        assert mass == pytest.approx(np.log(v.tag.integral_lebesgue()),
                                     abs=1e-12)
        assert mass == pytest.approx(
            log_hc_norm(untagged(v), 1.0, 1.0, 0.0, rule), abs=1e-12)
        w = tilt(v, 1.0, 1.0)
        assert log_ou_norm(w, 1.0, 0.3, rule) == pytest.approx(mass,
                                                               abs=1e-12)
        assert log_ou_norm(untagged(w.field(grid)), 1.0, 0.3,
                           rule) == pytest.approx(mass, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixture_sums_match_the_pointwise_read(self, seed, grid, rule):
        # a tag of K > 1 components at r != 1 reads P_s at the nested sums
        # through LogQuad.log_at_sums; without it, log_at at each sample
        v = make_fp_input(np.random.default_rng(seed), 2.0, grid)
        w = tilt(v, 0.5, 0.5)
        assert v.tag.a.size > 1 and w.tag is None and w.sums is not None
        pointwise = dataclasses.replace(w, sums=None)
        for q in (4.0, 0.25):
            assert log_ou_norm(w, q, 0.3, rule) == pytest.approx(
                log_ou_norm(pointwise, q, 0.3, rule), rel=1e-14, abs=1e-14)


class TestOUPairing:
    @pytest.mark.parametrize("beta, c, s", [
        (2.0, 0.5, 0.3), (0.5, 2.0, 0.55), (2.0, -1.0, 0.7),
        (0.5, 0.75, 1.2)])
    def test_one_component_tags_match_the_closed_form(self, beta, c, s,
                                                      rule):
        # u P_s w of one-component tags is one LogQuad, whose integral
        # against gamma is closed-form; the pairing reads it by nested GH
        u = tilt(LogQuad.gaussian(beta), c, c)
        w = tilt(LogQuad.gaussian(1.0, 0.8), c, c)
        pw = w.tag.ou(s)
        want = LogQuad(u.tag.a + pw.a, u.tag.b + pw.b,
                       u.tag.c + pw.c).log_lp_norm_gauss(1)
        assert log_ou_pairing(u, w, s, rule) == pytest.approx(
            want, rel=0, abs=1e-14)


# the functions that read a field's closed-form tag, one per quantity
TAG_READERS = {
    "flows.fp_evolve", "flows.moments", "functionals.tilt",
    "functionals.Tilt.field", "functionals.log_ou_norm",
    "transport._density_cdf", "hamilton_jacobi.quadratic_datum"}

# the functions that read a node array of (log v)'' or f'': the certificates
# read it through flows.curvature alone; tilt carries it to a tilted field
# and the general-LSI item to its member of e^{-V/beta}
D2LOG_READERS = {"flows.curvature", "functionals.tilt",
                 "cli._general_lsi_item"}
# dataclasses.replace renames no HypothesisCheck: its one caller adds
# params to a DeficitReport
REPLACE_CALLERS = {"inequalities.counterexample_mixture"}


def _readers(path, module, reads):
    """Qualified names of the functions and methods in the module at
    ``path`` that hold a node for which ``reads(node)`` holds."""
    found = set()

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope if in_function else scope + [child.name],
                      in_function or isinstance(child, ast.FunctionDef))
                continue
            if reads(child):
                found.add(".".join([module] + scope))
            visit(child, scope, in_function)

    with open(path, encoding="utf-8") as fh:
        visit(ast.parse(fh.read()), [], False)
    return found


def _library_readers(reads):
    """_readers over every module of the package."""
    import gauss_deficit
    src = os.path.dirname(gauss_deficit.__file__)
    return set().union(*(_readers(os.path.join(src, name), name[:-3], reads)
                         for name in sorted(os.listdir(src))
                         if name.endswith(".py")))


def _calls(name, module=None):
    """A predicate: the node calls ``name``, a method of that name, or, with
    ``module``, the function by its bare name or as module.name."""
    def reads(node):
        if not isinstance(node, ast.Call):
            return False
        fn = node.func
        if isinstance(fn, ast.Name):
            return fn.id == name
        return (isinstance(fn, ast.Attribute) and fn.attr == name
                and (module is None or (isinstance(fn.value, ast.Name)
                                        and fn.value.id == module)))
    return reads


class TestClosedFormReaders:
    def test_one_tag_reader_per_quantity(self):
        assert _library_readers(
            lambda node: isinstance(node, ast.Attribute)
            and node.attr == "tag") == TAG_READERS

    def test_one_curvature_reader(self):
        assert _library_readers(_calls("grid_d2log")) == D2LOG_READERS

    def test_no_hypothesis_is_renamed(self):
        assert (_library_readers(_calls("replace", module="dataclasses"))
                == REPLACE_CALLERS)
