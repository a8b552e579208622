"""Exact symmetries of the Gaussian setting as an oracle: reflection and
scaling.

gamma is even, so every deficit of v(-x) equals that of v: the suites'
random inputs are drawn again with every draw on a symmetric range (FP
atoms, bump centres) negated.  Every CLI input has mass 1, so a formula
wrong only off mass 1 passes every suite.  The statements are homogeneous
in the input: v -> lam v multiplies hc's two sides by lam^{1/p}; in
matrix_check, v1 -> lam v1 multiplies the product's entropy, Fisher
information and mass by lam, and its hc sides by lam^{1/p}; in
Brascamp-Lieb, f_i -> lam_i f_i multiplies both sides by lam1^{c1}
lam2^{c2}.  Each input and its multiple are closure fields on the same node
arrays, so that both are read through the same path.
"""
import numpy as np
import pytest
from numpy.random import default_rng

from gauss_deficit import cli
from gauss_deficit.inequalities import (brascamp_lieb_check, hc_check,
                                        matrix_check)
from gauss_deficit.numerics import GridField
from gauss_deficit.semigroups import ExponentTriple

LAMBDAS = [0.3, 3.0]
TRIPLE = ExponentTriple(2.0, 4.0)


class _Mirror:
    """A generator whose draws on a symmetric range [-c, c] come out
    negated, counted in ``negated``; every other draw is the wrapped
    generator's."""

    def __init__(self, rng):
        self.rng, self.negated = rng, 0

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def uniform(self, low, high, size=None):
        u = self.rng.uniform(low, high, size)
        if low != -high:
            return u
        self.negated += 1
        return -u


# (suite, the random items read): reverse-hc's odd items are opposite-sign
# pairs on a log-concave input, its even ones same-sign pairs on FP(2)
REFLECTED = [("verify-hc", (1, 2)), ("verify-reverse-hc", (1, 2)),
             ("verify-talagrand", (1, 2)), ("verify-lsi", (1, 2)),
             ("verify-els", (1, 2)), ("verify-poincare", (1, 2)),
             ("verify-beckner", (1, 2)), ("verify-matrix", (1, 2))]


@pytest.mark.parametrize("beta", [2.0, 0.5])
@pytest.mark.parametrize("command, items", REFLECTED)
def test_reflection_leaves_the_report(command, items, beta, monkeypatch):
    config = cli.RunConfig(command, beta=beta, seed=0, count=max(items) + 1)
    tasks, _ = cli._SUITES[command](config)
    plain = [tasks[i]() for i in items]
    mirrors = []

    def mirrored(c, i):
        mirrors.append(_Mirror(default_rng([c.seed, i])))
        return mirrors[-1]

    monkeypatch.setattr(cli, "_item_rng", mirrored)
    for i, one in zip(items, plain):
        r = tasks[i]()
        assert mirrors[-1].negated > 0
        tol = 1e-12 * max(1.0, abs(one.lhs))
        for key in ("lhs", "rhs", "slack"):
            assert getattr(r, key) == pytest.approx(getattr(one, key),
                                                    rel=0, abs=tol)
        for h, h1 in zip(r.hypotheses, one.hypotheses):
            assert h.margin == pytest.approx(h1.margin, rel=0, abs=1e-12)


def _scaled(v, lam):
    """lam v as a field of v's closures and node arrays without a tag;
    _scaled(v, 1.0) is v itself read the same way."""
    shift = float(np.log(lam))
    return GridField.from_callable(
        v.grid, log_fn=lambda x: v.log(x) + shift, dlog_fn=v.dlog,
        d2log_fn=v.analytic_d2log,
        nodes=(v.grid_log() + shift, v.grid_d2log()))


def _inputs(beta, *items):
    config = cli.RunConfig("verify-hc", beta=beta, seed=0)
    return config.rule(), [cli._density(config, i) for i in items]


@pytest.mark.parametrize("beta", [2.0, 0.5])
@pytest.mark.parametrize("lam", LAMBDAS)
def test_hc_scales_by_lambda_to_the_one_over_p(beta, lam):
    rule, (v,) = _inputs(beta, 1)
    one = hc_check(_scaled(v, 1.0), beta, TRIPLE, rule)
    r = hc_check(_scaled(v, lam), beta, TRIPLE, rule)
    factor = lam ** (1.0 / TRIPLE.p)
    assert r.lhs == pytest.approx(factor * one.lhs, rel=1e-12)
    assert r.rhs == pytest.approx(factor * one.rhs, rel=1e-12)


@pytest.mark.parametrize("beta", [2.0, 0.5])
@pytest.mark.parametrize("lam", LAMBDAS)
def test_matrix_scales_with_the_first_factor(beta, lam):
    rule, (v1, v2) = _inputs(beta, 1, 2)
    v2 = _scaled(v2, 1.0)
    B = np.diag([beta, beta])
    one, many = _scaled(v1, 1.0), _scaled(v1, lam)

    def check(v, which):
        return matrix_check(v, v2, B, which, rule,
                            TRIPLE if which == "hc" else None)

    hc1, hc = check(one, "hc"), check(many, "hc")
    factor = lam ** (1.0 / TRIPLE.p)
    assert hc.lhs == pytest.approx(factor * hc1.lhs, rel=1e-12)
    assert hc.rhs == pytest.approx(factor * hc1.rhs, rel=1e-12)
    assert hc.params["mass"] == pytest.approx(lam * hc1.params["mass"],
                                              rel=1e-12)
    lsi1, lsi = check(one, "lsi"), check(many, "lsi")
    for key in ("entropy", "fisher"):
        assert lsi.params[key] == pytest.approx(lam * lsi1.params[key],
                                                rel=1e-12)


@pytest.mark.parametrize("lams", [(0.3, 3.0), (3.0, 0.3)])
def test_brascamp_lieb_scales_by_the_exponents(lams):
    # c1 = 1/p, c2 = 1/q' of the forward triple, at beta = 2 (forward BL)
    rule, (f1, f2) = _inputs(2.0, 1, 2)
    c1, c2 = 1.0 / TRIPLE.p, 1.0 - 1.0 / TRIPLE.q
    one = brascamp_lieb_check(_scaled(f1, 1.0), _scaled(f2, 1.0), TRIPLE,
                              2.0, rule)
    r = brascamp_lieb_check(_scaled(f1, lams[0]), _scaled(f2, lams[1]),
                            TRIPLE, 2.0, rule)
    factor = lams[0] ** c1 * lams[1] ** c2
    assert r.lhs == pytest.approx(factor * one.lhs, rel=1e-12)
    assert r.rhs == pytest.approx(factor * one.rhs, rel=1e-12)
