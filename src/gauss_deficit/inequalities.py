"""
Deficit checkers: regularised hypercontractivity (forward and reverse), LSI,
eigenvalue-restricted entropy bounds, matrix (tensorised) variants, Poincare,
Beckner, Brascamp-Lieb in dual form, and the counterexample constructions.

Every checker returns a DeficitReport with the measured left/right sides, the
sharp constant, signed slack, and the certified hypotheses.  Reports never
assert an inequality whose hypotheses failed; they still carry the numbers.
"""
from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from .families import (LogQuad, field_from_family, gaussian_field,
                       symmetric_mixture)
from .flows import T_STAR, _symmetric_2x2, certify_matrix, check_density, \
    curvature, fp_measure, moments, semi_log_concave, semi_log_convex
from .functionals import _check_ratio_bounded, entropy_fisher, \
    log_hc_norm, log_ou_norm, log_ou_pairing, sharp_constant, tilt
from .numerics import Grid1D, GridField, ParameterError
from .reports import DeficitReport, HypothesisCheck
from .semigroups import ExponentTriple, InadmissibleExponentError
from .transport import w2


# ---------------------------------------------------------------------------
# shared plumbing


def _certificate_hypotheses(v: GridField, beta: float) -> list:
    """The regime-dependent curvature hypothesis (none at beta = 1)."""
    if beta > 1:
        return [semi_log_convex(v, beta, "beta-semi-log-subharmonic")]
    if beta < 1:
        return [semi_log_concave(v, beta, "beta-semi-log-concave")]
    return []


# ---------------------------------------------------------------------------
# hypercontractivity


def hc_check(v: GridField, beta: float, triple: ExponentTriple,
             rule) -> DeficitReport:
    """Regularised hypercontractivity deficit in the triple's regime:

    lhs = ||P_s[(v/gamma)^{1/p}]||_q,
    rhs = beta^{n/2p'} beta_s^{-n/2q'} (int v dx)^{1/p}.

    Forward (1 < p < q): lhs <= rhs under beta's curvature certificate.
    Reverse (q < p < 1; the triple refuses p, q = 0): lhs >= rhs; pq > 0
    pairs with beta > 1 (subharmonic), pq < 0 with beta < 1 (concave).
    """
    p, q, s = triple.p, triple.q, triple.s
    forward = triple.regime == "forward"
    _check_ratio_bounded(v, beta)
    if forward:
        hyps = _certificate_hypotheses(v, beta)
    elif p * q > 0:
        hyps = [HypothesisCheck("beta>1-for-pq>0", beta - 1.0, 0.0),
                semi_log_convex(v, max(beta, 1.0),
                                "beta-semi-log-subharmonic")]
    else:
        hyps = [HypothesisCheck("beta<1-for-pq<0", 1.0 - beta, 0.0),
                semi_log_concave(v, min(beta, 1.0), "beta-semi-log-concave")]
    lhs = float(np.exp(log_hc_norm(v, p, q, s, rule)))
    mass = float(np.exp(log_hc_norm(v, 1.0, 1.0, 0.0, rule)))
    const = sharp_constant("hc_ratio", beta=beta, triple=triple)
    rhs = const * mass ** (1.0 / p)
    return DeficitReport(
        "hypercontractivity" if forward else "reverse-hypercontractivity",
        lhs, rhs, const, direction="le" if forward else "ge",
        hypotheses=hyps,
        params={"beta": beta, "p": p, "q": q, "s": s, "mass": mass})


# ---------------------------------------------------------------------------
# logarithmic Sobolev


def lsi_check(v: GridField, beta: float, rule) -> DeficitReport:
    """Regularised LSI: Ent - I/2 <= -(n/2)(log beta - 1 + 1/beta)."""
    check_density(v)
    hyps = _certificate_hypotheses(v, beta)
    ef = entropy_fisher(tilt(v, 1.0, 1.0), rule)
    const = sharp_constant("lsi_gauss", beta=beta)
    return DeficitReport(
        "log-sobolev", ef.entropy - 0.5 * ef.fisher, const, const,
        hypotheses=hyps,
        params={"beta": beta, "n": 1, "entropy": ef.entropy,
                "fisher": ef.fisher})


def els_eigen_check(v: GridField, rule) -> DeficitReport:
    """Covariance-eigenvalue entropy bound (no convexity hypothesis):

    Ent <= I/2 - (1/2) sum_{beta_i <= 1} (log beta_i - 1 + 1/beta_i).
    """
    mass, _, var = moments(v)
    check_density(v, mass)
    ef = entropy_fisher(tilt(v, 1.0, 1.0), rule)
    # the covariance of a density on the line is 1 x 1; a variance above 1
    # is read at 1, where the constant vanishes
    correction = sharp_constant("lsi_gauss", beta=min(var, 1.0))
    rhs = 0.5 * ef.fisher + correction
    return DeficitReport(
        "els-eigenvalue", ef.entropy, rhs, correction,
        params={"cov_eigenvalues": [var], "entropy": ef.entropy,
                "fisher": ef.fisher, "correction": correction})


# ---------------------------------------------------------------------------
# matrix (tensorised) variants


def _matrix_side(v1: GridField, v2: GridField, B: np.ndarray, eigs, logc):
    """Pick the certified side, preferring the stronger passing statement.

    Statement strength is the side's LSI correction, lsi_gauss summed over
    its eigenvalues: more negative means a tighter bound.  When
    neither side certifies, the one with the better margin is reported.
    A given log-concavity certificate ``logc`` must pass for the convex side.
    """
    certs = {s: certify_matrix(v1, v2, B, s) for s in ("convex", "concave")}

    def strength(s):
        rel = [b for b in eigs if (b >= 1.0 if s == "convex" else b <= 1.0)]
        return sum(sharp_constant("lsi_gauss", beta=b) for b in rel)

    passing = [s for s in certs if certs[s].passed]
    if logc is not None and "convex" in passing and not logc.passed:
        passing.remove("convex")
    if passing:
        best = min(passing, key=strength)
        return best, certs[best]
    best = max(certs, key=lambda s: certs[s].margin)
    return best, certs[best]


def matrix_check(v1: GridField, v2: GridField, B: np.ndarray, which: str,
                 rule,
                 triple: Optional[ExponentTriple] = None) -> DeficitReport:
    """n = 2 variants for the product density v = v1 (x) v2 with matrix
    curvature bound grad^2 log v vs -B^{-1}, B symmetric positive definite.
    ``which`` is "hc", which needs a forward ``triple``, or "lsi" or
    "talagrand", which take none.

    Convex side (>= -B^{-1}) restricts corrections to eigenvalues >= 1;
    concave side (<= -B^{-1}) to eigenvalues <= 1.  Each constant is the
    1-D sharp constant summed (hc: multiplied) over those eigenvalues.  The
    Talagrand variant on the convex side additionally needs grad^2 log v
    <= 0.  The stronger certified statement is used.

    Every quantity comes from the factors: P_s, the L^q(gamma) norm and the
    mass of v/gamma factorise; with m_i the mass of v_i/gamma, Ent = m2 Ent_1
    + m1 Ent_2 and I = m2 I_1 + m1 I_2; and W_2^2(gamma_2, v) =
    W_2^2(gamma, v1) + W_2^2(gamma, v2).
    """
    if which not in ("hc", "lsi", "talagrand"):
        raise ParameterError(f"unknown variant {which!r}")
    if (triple is None) == (which == "hc"):
        raise ParameterError(f"a triple is for the hc variant only, which "
                             f"needs one; got {which!r} with {triple}")
    B = _symmetric_2x2(B)
    eigs = np.linalg.eigvalsh(B)
    if np.any(eigs <= 0):
        raise ParameterError("B must be positive definite")

    logc = (HypothesisCheck("log-concave", -max(curvature(v)[1]
                                                for v in (v1, v2)), 1e-6)
            if which == "talagrand" else None)
    side, cert = _matrix_side(v1, v2, B, eigs, logc)
    hyps = [cert] + ([logc] if logc is not None and side == "convex" else [])
    relevant = [b for b in eigs if (b >= 1.0 if side == "convex" else b <= 1.0)]

    m1, m2 = (float(np.exp(log_hc_norm(v, 1.0, 1.0, 0.0, rule)))
              for v in (v1, v2))
    if which == "hc":
        if triple.regime != "forward":
            raise InadmissibleExponentError("matrix hc needs a forward triple")
        lhs = float(np.exp(sum(log_hc_norm(v, triple.p, triple.q, triple.s,
                                           rule) for v in (v1, v2))))
        const = float(np.prod([
            sharp_constant("hc_ratio", beta=b, triple=triple)
            for b in relevant])) if relevant else 1.0
        mass = m1 * m2
        rhs = const * mass ** (1.0 / triple.p)
        params = {"which": which, "side": side, "eigenvalues": eigs,
                  "p": triple.p, "q": triple.q, "mass": mass}
        return DeficitReport("matrix-hypercontractivity", lhs, rhs, const,
                             hypotheses=hyps, params=params)

    if which == "lsi":
        ef1, ef2 = (entropy_fisher(tilt(v, 1.0, 1.0), rule)
                    for v in (v1, v2))
        ent = m2 * ef1.entropy + m1 * ef2.entropy
        fisher = m2 * ef1.fisher + m1 * ef2.fisher
        correction = float(sum(sharp_constant("lsi_gauss", beta=b)
                               for b in relevant))
        rhs = 0.5 * fisher + correction
        return DeficitReport(
            "matrix-log-sobolev", ent, rhs, correction, hypotheses=hyps,
            params={"which": which, "side": side, "eigenvalues": eigs,
                    "entropy": ent, "fisher": fisher})

    cost = sum(w2(gaussian_field(v.grid, 1.0), v) ** 2 for v in (v1, v2))
    ent1, ent2 = (entropy_fisher(tilt(v, 1.0, 1.0), rule).entropy
                  for v in (v1, v2))
    ent = m2 * ent1 + m1 * ent2
    const = float(sum(sharp_constant("talagrand_gauss", beta=b)
                      for b in relevant))
    return DeficitReport(
        "matrix-talagrand", 0.5 * cost - ent, const, const, hypotheses=hyps,
        params={"which": which, "side": side, "eigenvalues": eigs,
                "w2_sq": cost, "entropy": ent})


# ---------------------------------------------------------------------------
# Poincare and Beckner


def _grad_sq_gauss(f: GridField, fv, rule) -> float:
    """int |f'|^2 dgamma, f' = fv (log f)' with fv = f at the rule's nodes."""
    return float(((fv * f.dlog(rule.nodes)) ** 2) @ rule.weights)


def poincare_check(f: GridField, beta: float, rule) -> DeficitReport:
    """Sharpened Poincare inequality

        (1/2)(1 + D_n(beta)) int f^2 dgamma - (1/2)(int |f| dgamma)^2
            <= int |f'|^2 dgamma

    with the curvature hypothesis placed on gamma f^2.  The intermediate
    L^2-vs-L^1 entropy inequality (its p = 1 form) is recorded in params.
    """
    hyps = _certificate_hypotheses(tilt(f, 2.0, -1.0).field(f.grid), beta)
    fv, wts = np.asarray(f(rule.nodes), float), rule.weights
    int_f2 = float((fv * fv) @ wts)
    int_absf = float(np.abs(fv) @ wts)
    grad = _grad_sq_gauss(f, fv, rule)
    dn = sharp_constant("dn", beta=beta)
    lhs = 0.5 * (1.0 + dn) * int_f2 - 0.5 * int_absf**2
    params = {"beta": beta, "dn": dn, "int_f2": int_f2, "int_absf": int_absf,
              "improves_classical": bool(dn > 1.0)}
    if int_f2 > 0 and int_absf > 0:
        goal_lhs = int_f2 * np.log(int_f2 / int_absf**2)
        goal_rhs = 2.0 * grad - dn * int_f2
        params["entropy_goal_lhs"] = float(goal_lhs)
        params["entropy_goal_rhs"] = float(goal_rhs)
        params["entropy_goal_slack"] = float(goal_rhs - goal_lhs)
    return DeficitReport("poincare", lhs, grad, dn, hypotheses=hyps,
                         params=params)


def beckner_check(f: GridField, p: float, beta: float,
                  rule) -> DeficitReport:
    """Sharpened Beckner inequality for p in (1, 2):

        (1/(2-p)) [ int f^2 dgamma - B(p,beta) (int f^p dgamma)^{2/p} ]
            <= int |f'|^2 dgamma

    with the curvature hypothesis on gamma f^p.  The classical variance
    smoothing bound int f^2 - int |P_s f|^2 <= (1-e^{-2s}) int |f'|^2 at
    s = -(1/2) log(p-1), int |P_s f|^2 by log_ou_norm, is recorded in
    params.
    """
    if not 1.0 < p < 2.0:
        raise ParameterError("p must lie in (1, 2)")
    fv, wts = np.asarray(f(rule.nodes), float), rule.weights
    if np.any(fv < 0):
        raise ParameterError("beckner_check needs nonnegative f")
    hyps = _certificate_hypotheses(tilt(f, p, -1.0).field(f.grid), beta)
    int_f2 = float((fv * fv) @ wts)
    int_fp = float((fv ** p) @ wts)
    grad = _grad_sq_gauss(f, fv, rule)
    bconst = sharp_constant("beckner_b", p=p, beta=beta)
    lhs = (int_f2 - bconst * int_fp ** (2.0 / p)) / (2.0 - p)
    s = -0.5 * float(np.log(p - 1.0))
    int_psf2 = float(np.exp(2.0 * log_ou_norm(f, 2.0, s, rule)))
    smooth_rhs = (1.0 - np.exp(-2.0 * s)) * grad
    return DeficitReport(
        "beckner", lhs, grad, bconst, hypotheses=hyps,
        params={"beta": beta, "p": p, "s": s, "b_const": bconst,
                "smoothing_lhs": int_f2 - int_psf2,
                "smoothing_rhs": smooth_rhs,
                "smoothing_slack": smooth_rhs - (int_f2 - int_psf2)})


# ---------------------------------------------------------------------------
# Brascamp-Lieb dual form


# the Brascamp-Lieb case of each regime: c1 = 1/p and c2 = 1/q' both in
# (0, 1) forward, of opposite signs for pq > 0, both above 1 for pq < 0
_BL_CASE = {"forward": "forward", "reverse-same-sign": "reverse-mixed",
            "reverse-opposite-sign": "reverse-concave"}


def brascamp_lieb_check(f1: GridField, f2: GridField,
                        triple: ExponentTriple, beta: float,
                        rule) -> DeficitReport:
    """Dual-form sharpened Brascamp-Lieb inequality on R^2.

    With c1 = 1/p, c2 = 1/q' and sig^2 = 1 - e^{-2s}, compares the double
    integral of e^{-x.Qx} f1(x1)^{c1} f2(x2)^{c2}, 2 sig^2 x.Qx =
    (1 - sig^2 c1) x1^2 - 2 e^{-s} x1 x2 + (1 - sig^2 c2) x2^2, against
    H(c1,c2) ||P_s[(gamma_beta/gamma)^{c1}]||_{(1/c2)'} (int f1)^{c1}
    (int f2)^{c2}, the norm and the masses by log_hc_norm on the rule.  By
    Mehler's kernel the double integral is H(c1,c2) times the pairing
    <(f1/gamma)^{c1}, P_s (f2/gamma)^{c2}>_gamma, read by log_ou_pairing.
    The case is _BL_CASE of the triple's regime: forward (c1,c2 in (0,1),
    beta>1): <=; reverse-mixed (c1c2<0, beta>1) and reverse-concave (c1,c2>1,
    beta<1): >=.
    """
    c1 = 1.0 / triple.p
    c2 = 1.0 - 1.0 / triple.q  # 1/q'
    s = triple.s
    case = _BL_CASE[triple.regime]
    expected_dir = "le" if case == "forward" else "ge"

    if case in ("forward", "reverse-mixed"):
        hyps = [HypothesisCheck("beta>1", beta - 1.0, 0.0),
                semi_log_convex(f1, max(beta, 1.0), "log f1'' >= -1/beta")]
    else:
        hyps = [HypothesisCheck("beta<1", 1.0 - beta, 0.0),
                semi_log_concave(f1, min(beta, 1.0), "log f1'' <= -1/beta")]

    h_const = sharp_constant("bl_h", c1=c1, c2=c2, s=s)
    lhs = h_const * float(np.exp(log_ou_pairing(
        tilt(f1, c1, c1), tilt(f2, c2, c2), s, rule)))
    # ||P_s[(gamma_beta/gamma)^{c1}]||_{(1/c2)'} with c1 = 1/p, (1/c2)' = q
    script_h = h_const * float(np.exp(log_hc_norm(
        LogQuad.gaussian(beta), triple.p, triple.q, s, rule)))
    m1, m2 = (float(np.exp(log_hc_norm(f, 1.0, 1.0, 0.0, rule)))
              for f in (f1, f2))
    rhs = script_h * m1 ** c1 * m2 ** c2
    return DeficitReport(
        "brascamp-lieb", lhs, rhs, script_h, direction=expected_dir,
        hypotheses=hyps,
        params={"beta": beta, "c1": c1, "c2": c2, "s": s, "case": case,
                "classical_const": h_const, "mass_f1": m1, "mass_f2": m2})


# ---------------------------------------------------------------------------
# counterexamples


def counterexample_mixture(a: float, grid: Grid1D, rule) -> DeficitReport:
    """Two-bump Gaussian mixture (1/2) gamma(.+a) + (1/2) gamma(.-a).

    Its covariance 1 + a^2 blows up while the LSI deficit Ent - I/2 stays
    bounded, so the regularised LSI at beta = cov fails for large a: the
    report shows negative slack together with the failed subharmonicity
    certificate.
    """
    if a < 0:
        raise ParameterError("a must be nonnegative")
    if a == 0:
        v = field_from_family(grid, LogQuad.gaussian(1.0))
        cov = 1.0
    else:
        v = field_from_family(grid, symmetric_mixture(a, 1.0))
        cov = 1.0 + a * a
    report = lsi_check(v, cov, rule)
    return replace(report, params={**report.params, "a": a,
                                   "covariance": cov})


def counterexample_superharmonic(t: float) -> DeficitReport:
    """f = e^{x1 x2} has Delta log f = 0, yet Delta log P_t f > 0 for t > 0.

    Completing the square in both kernel variables makes log P_t f a
    quadratic form in x plus a constant, so its Laplacian is the same at
    every x: with sig^2 = 1 - e^{-2t} and e^2 = e^{-2t},
    Delta log P_t f = 2 sig^2 e^2 / (1 - sig^4).
    """
    if t <= 0:
        raise ParameterError("t must be positive")
    e2 = float(np.exp(-2.0 * t))
    sig2 = 1.0 - e2
    return DeficitReport(
        "superharmonic-not-preserved",
        lhs=2.0 * sig2 * e2 / (1.0 - sig2 * sig2), rhs=0.0, sharp_constant=0.0,
        direction="ge", params={"t": t, "delta_log_f": 0.0})


# ---------------------------------------------------------------------------
# seeded input generators for the property suites


def make_fp_input(rng: np.random.Generator, beta: float,
                  grid: Grid1D) -> GridField:
    """A random member of FP(beta): automatically beta-semi-log-convex."""
    k = int(rng.integers(1, 9))
    points = rng.uniform(-3.0, 3.0, size=k)
    weights = rng.dirichlet(np.ones(k))
    return fp_measure(points, weights, 2.0 * beta, T_STAR, grid)


def _bumped_gaussian(core: LogQuad, eps: float, m: float,
                     grid: Grid1D) -> GridField:
    """The one-component core times e^{-eps sqrt(1 + (x - m)^2)}, a smooth
    convex bump, normalised by its trapezoid mass on the grid; its exact
    (log v)' and (log v)'' come with it.  The log is evaluated at the nodes
    once, for the normaliser and the field's values alike."""

    def root(x):
        return np.sqrt(1.0 + (np.asarray(x, float) - m) ** 2)

    def raw_log(x):
        return core.log_at(x) - eps * root(x)

    def dlog(x):
        return core.dlog(x) - eps * (np.asarray(x, float) - m) / root(x)

    lv = raw_log(grid.points)
    logz = float(np.log(np.trapezoid(np.exp(lv), dx=grid.spacing)))
    return GridField.from_callable(
        grid, log_fn=lambda x: raw_log(x) - logz, dlog_fn=dlog,
        d2log_fn=lambda x: core.a[0] - eps / root(x) ** 3,
        nodes=(lv - logz, None))


def make_logconcave_input(rng: np.random.Generator, beta: float,
                          grid: Grid1D) -> GridField:
    """A random beta-semi-log-concave density: a narrower Gaussian times
    e^{-(smooth convex bump)}, renormalized on the grid."""
    if beta >= 1:
        raise ParameterError("generator intended for beta < 1")
    base = beta * float(rng.uniform(0.55, 0.95))
    eps = float(rng.uniform(0.0, 0.3))
    m = float(rng.uniform(-1.0, 1.0))
    return _bumped_gaussian(LogQuad.gaussian(base), eps, m, grid)


def make_talagrand_input(rng: np.random.Generator, beta: float,
                         grid: Grid1D) -> GridField:
    """A random density satisfying the transport-inequality hypotheses.

    For beta >= 1 that is 0 >= (log v)'' >= -1/beta: a shifted Gaussian of
    variance b >= beta times a convex-bump factor small enough to keep the
    curvature above -1/beta.  For beta < 1 the beta-semi-log-concave
    generator already qualifies.
    """
    if beta < 1:
        return make_logconcave_input(rng, beta, grid)
    b = beta * float(rng.uniform(1.1, 3.0))
    eps = float(rng.uniform(0.0, 0.9)) * (1.0 / beta - 1.0 / b)
    m = float(rng.uniform(-1.0, 1.0))
    return _bumped_gaussian(LogQuad.gaussian(b, m), eps, m, grid)


def sample_reverse_triple(rng: np.random.Generator,
                          same_sign: bool) -> ExponentTriple:
    """Random reverse-regime triple, p at least 0.05 from the excluded 0 and
    1 - e^{-2s}; every pair drawn is admissible, redrawn only for that."""
    for _ in range(200):
        if same_sign:
            p = float(rng.uniform(0.15, 0.9))
            q = float(rng.uniform(0.02, p - 0.05))
        else:
            p = float(rng.uniform(0.2, 0.8))
            q = float(rng.uniform(-2.0, -0.1))
        triple = ExponentTriple(p, q)
        band = 1.0 - np.exp(-2.0 * triple.s)
        if abs(p) >= 0.05 and abs(p - band) >= 0.05:
            return triple
    raise ParameterError("failed to sample an admissible reverse triple")
