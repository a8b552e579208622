"""The paper's derivation chain, checked on the suites' own inputs.

hc -> LSI (Gross): with p = 2 and q(s) = 1 + e^{2s}, the hypercontractive
norm L(s) = log ||P_s[(v/gamma)^{1/2}]||_{q(s)} starts at L(0) = (1/2) log m,
m the mass of v, and

    L'(0) = (1/2) (Ent - I/2) / m,

Ent and I the entropy and Fisher information of v/gamma (entropy_fisher).
So the quotient [L(s) - (1/2) log m] / s, which log_hc_norm reads, tends to
the LSI deficit that entropy_fisher reads.

Beckner -> LSI: with e = 2 - p, (int f^p dgamma)^{2/p} = M - (e/2) Ent + O(e^2)
and B(p, beta) = 1 - (e/2) dn + O(e^2), Ent = Ent_gamma(f^2), M = int f^2
dgamma and dn = (1/2)(log beta - 1 + 1/beta) ((d/dp) beckner_b at p = 2).
So the left side of beckner_check, [M - B (int f^p)^{2/p}] / e, tends to
(1/2) Ent + (dn/2) M as p -> 2.

LSI -> Poincare: for f = (v/gamma)^{1/2}, M = int f^2 dgamma and
A = int |f| dgamma, the LSI of v times M is the entropy goal of
poincare_check, M Ent <= 2 int |f'|^2 dgamma - dn M, and Jensen's
M Ent >= M log(M/A^2) is its left side.  So

    entropy_goal_slack = M (LSI slack of v) + J,   J = M Ent - M log(M/A^2),

and since log u >= 1 - 1/u,

    2 (Poincare slack) = entropy_goal_slack + J2,  J2 = M log(M/A^2) - M + A^2,

with J, J2 >= 0: the Poincare check's gradient, D_n and lhs are tied to the
LSI check's entropy, Fisher information and constant.
"""
import numpy as np
import pytest

from gauss_deficit import cli
from gauss_deficit.functionals import (entropy_fisher, log_hc_norm,
                                       log_ou_norm, sharp_constant, tilt)
from gauss_deficit.inequalities import (beckner_check, lsi_check,
                                        poincare_check)


def _richardson(g, h):
    """Three-level Richardson extrapolation to 0 of g from h, 2h and 4h:
    its error is O(h^3) for a smooth g."""
    g1, g2, g4 = (g(k * h) for k in (1, 2, 4))
    return (4.0 * (2.0 * g1 - g2) - (2.0 * g2 - g4)) / 3.0


def _hc_quotient(v, rule, h):
    """The Richardson extrapolation to s = 0 of [L(s) - (1/2) log m] / s
    from s = h, 2h, 4h, and the mass m."""
    log_m = log_hc_norm(v, 1.0, 1.0, 0.0, rule)

    def quotient(s):
        return (log_hc_norm(v, 2.0, 1.0 + np.exp(2.0 * s), s, rule)
                - 0.5 * log_m) / s

    return _richardson(quotient, h), float(np.exp(log_m))


class TestHcToLsi:
    # beta = 2: the worst gap over items 0-3 is 2.9e-12 at h = 2.5e-4; it
    # was 1.7e-10 at h = 1e-3 and falls as h^3, the extrapolation's own
    # error.  beta = 0.5: the gap stalls at 2.2e-8 for every h at 96
    # Gauss-Hermite nodes; at 192 nodes it is 7e-10, and item 0, the closed
    # form, is within 3.4e-11.
    @pytest.mark.parametrize("beta,tol", [(2.0, 1e-10), pytest.param(
        0.5, 1e-9, marks=pytest.mark.xfail(
            strict=True,
            reason="ROADMAP item 3: 96 Gauss-Hermite nodes read the "
                   "beta = 0.5 inputs, narrower than gamma, to 2.2e-8"))])
    def test_derivative_is_the_lsi_deficit(self, beta, tol):
        config = cli.RunConfig("verify-lsi", beta=beta, seed=0)
        rule = config.rule()
        for i in range(4):
            v = cli._density(config, i)
            ef = entropy_fisher(tilt(v, 1.0, 1.0), rule)
            got, mass = _hc_quotient(v, rule, 2.5e-4)
            want = 0.5 * (ef.entropy - 0.5 * ef.fisher) / mass
            assert got == pytest.approx(want, rel=0, abs=tol), i


class TestBecknerToLsi:
    # the worst gap over items 0-3 at both beta, at p = 2 - h, 2 - h/2 and
    # 2 - h/4: 6.8e-11 at h = 1e-3, 9.7e-12 at h = 5e-4 and 8.3e-12 at
    # h = 2.5e-4, where rounding takes over.  Both sides read one
    # Gauss-Hermite rule, so the beta = 0.5 stall of hc -> LSI does not
    # show here.
    @pytest.mark.parametrize("beta", [2.0, 0.5])
    def test_limit_is_the_lsi_deficit(self, beta):
        config = cli.RunConfig("verify-beckner", beta=beta, seed=0)
        rule = config.rule()
        dn = sharp_constant("dn", beta=beta)
        for i in range(4):
            f = cli._test_function(config, i, 2.0)  # f^2 = v/gamma
            got = _richardson(
                lambda e: beckner_check(f, 2.0 - e, beta, rule).lhs, 1.25e-4)
            ent = entropy_fisher(tilt(f, 2.0, 0.0), rule).entropy
            mass = float(np.exp(2.0 * log_ou_norm(f, 2.0, 0.0, rule)))
            want = 0.5 * ent + 0.5 * dn * mass
            assert got == pytest.approx(want, rel=0, abs=1e-10), i


def _poincare_chain(beta):
    """Per item 0-5 at seed 0: the Poincare report of f = (v/gamma)^{1/2},
    the LSI report of v, J and J2."""
    config = cli.RunConfig("verify-poincare", beta=beta, seed=0)
    rule = config.rule()
    for i in range(6):
        pc = poincare_check(cli._test_function(config, i, 2.0), beta, rule)
        lsi = lsi_check(cli._density(config, i), beta, rule)
        m, a = pc.params["int_f2"], pc.params["int_absf"]
        j = m * lsi.params["entropy"] - pc.params["entropy_goal_lhs"]
        j2 = m * np.log(m / a**2) - m + a**2
        yield i, pc, lsi, j, j2


class TestLsiToPoincare:
    # measured: the first identity holds within 2.2e-16 at beta = 2 and
    # misses by up to 1.1e-10 at beta = 0.5, where v's Gauss-Hermite mass
    # is 1 only to about 1e-10; the second holds within 1.1e-16 at both
    @pytest.mark.parametrize("beta", [2.0, pytest.param(
        0.5, marks=pytest.mark.xfail(
            strict=True,
            reason="ROADMAP item 3: 96 Gauss-Hermite nodes read the "
                   "beta = 0.5 inputs, narrower than gamma, to about 1e-10"))])
    def test_lsi_gives_the_entropy_goal(self, beta):
        for i, pc, lsi, j, _ in _poincare_chain(beta):
            m = pc.params["int_f2"]
            assert pc.params["entropy_goal_slack"] == pytest.approx(
                m * lsi.slack + j, rel=0, abs=1e-12), i

    @pytest.mark.parametrize("beta", [2.0, 0.5])
    def test_entropy_goal_gives_poincare(self, beta):
        for i, pc, _, j, j2 in _poincare_chain(beta):
            assert j >= 0 and j2 >= 0, i
            assert 2.0 * pc.slack == pytest.approx(
                pc.params["entropy_goal_slack"] + j2, rel=0, abs=1e-12), i
