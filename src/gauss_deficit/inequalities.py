"""
Deficit checkers: regularised hypercontractivity (forward and reverse), LSI,
eigenvalue-restricted entropy bounds, matrix (tensorised) variants, Poincare,
Beckner, Brascamp-Lieb in dual form, and the counterexample constructions.

Every checker returns a DeficitReport with the measured left/right sides, the
sharp constant, signed slack, and the certified hypotheses.  Reports never
assert an inequality whose hypotheses failed; they still carry the numbers.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .families import (LogQuad, field_from_family, gaussian_field,
                       symmetric_mixture)
from .flows import MeasureSpec, certify, certify_log_concave, \
    certify_matrix, check_density, covariance, fp_class_member
from .functionals import _check_ratio_bounded, _rule_or_default, \
    entropy_fisher, log_hc_norm, log_ou_norm, sharp_constant, tilt
from .numerics import (Grid1D, GridField, ParameterError, _coarsest_stride,
                       _refine_strides, default_grid)
from .reports import DeficitReport, HypothesisCheck
from .semigroups import ExponentTriple, InadmissibleExponentError
from .transport import relative_entropy_gauss, w2


# ---------------------------------------------------------------------------
# shared plumbing


def _certificate_hypotheses(v: GridField, beta: float) -> list:
    """The regime-dependent curvature hypothesis (none at beta = 1)."""
    if beta > 1:
        return [replace(certify(v, "subharmonic", beta),
                        name="beta-semi-log-subharmonic")]
    if beta < 1:
        return [replace(certify(v, "concave", beta),
                        name="beta-semi-log-concave")]
    return []


# ---------------------------------------------------------------------------
# hypercontractivity


def hc_check(v: GridField, beta: float, triple: ExponentTriple,
             rule=None) -> DeficitReport:
    """Forward regularised hypercontractivity deficit.

    lhs = ||P_s[(v/gamma)^{1/p}]||_q,
    rhs = beta^{n/2p'} beta_s^{-n/2q'} (int v dx)^{1/p}.
    """
    if triple.regime != "forward":
        raise InadmissibleExponentError("hc_check needs 1 < p < q")
    _check_ratio_bounded(v, beta)
    hyps = _certificate_hypotheses(v, beta)
    lhs = float(np.exp(log_hc_norm(v, triple.p, triple.q, triple.s, rule)))
    mass = float(np.exp(log_hc_norm(v, 1.0, 1.0, 0.0, rule)))
    const = sharp_constant("hc_ratio", beta=beta, triple=triple).value
    rhs = const * mass ** (1.0 / triple.p)
    return DeficitReport(
        "hypercontractivity", lhs, rhs, const, hypotheses=hyps,
        params={"beta": beta, "p": triple.p, "q": triple.q, "s": triple.s,
                "mass": mass})


def reverse_hc_check(v: GridField, beta: float, triple: ExponentTriple,
                     rule=None) -> DeficitReport:
    """Reverse regularised hypercontractivity: lhs >= rhs, slack = lhs - rhs.

    Admissible exponents have q < p < 1 with p excluded from {0, 1-e^{-2s}};
    pq > 0 pairs with beta > 1 (subharmonic), pq < 0 with beta < 1 (concave).
    """
    if triple.regime not in ("reverse-same-sign", "reverse-opposite-sign"):
        raise InadmissibleExponentError("reverse_hc_check needs q < p < 1")
    p, s = triple.p, triple.s
    if abs(p) < 1e-9 or abs(p - (1.0 - np.exp(-2.0 * s))) < 1e-9:
        raise InadmissibleExponentError(
            "p must avoid the excluded values 0 and 1 - e^{-2s}")
    _check_ratio_bounded(v, beta)
    if triple.p * triple.q > 0:
        hyps = [HypothesisCheck("beta>1-for-pq>0", beta - 1.0, 0.0),
                replace(certify(v, "subharmonic", max(beta, 1.0)),
                        name="beta-semi-log-subharmonic")]
    else:
        hyps = [HypothesisCheck("beta<1-for-pq<0", 1.0 - beta, 0.0),
                replace(certify(v, "concave", min(beta, 1.0)),
                        name="beta-semi-log-concave")]
    lhs = float(np.exp(log_hc_norm(v, p, triple.q, s, rule)))
    mass = float(np.exp(log_hc_norm(v, 1.0, 1.0, 0.0, rule)))
    const = sharp_constant("hc_ratio", beta=beta, triple=triple).value
    rhs = const * float(np.exp(np.log(mass) / p))
    return DeficitReport(
        "reverse-hypercontractivity", lhs, rhs, const, direction="ge",
        hypotheses=hyps,
        params={"beta": beta, "p": p, "q": triple.q, "s": s, "mass": mass})


# ---------------------------------------------------------------------------
# logarithmic Sobolev


def lsi_check(v: GridField, beta: float, rule=None) -> DeficitReport:
    """Regularised LSI: Ent - I/2 <= -(n/2)(log beta - 1 + 1/beta)."""
    check_density(v)
    hyps = _certificate_hypotheses(v, beta)
    ef = entropy_fisher(tilt(v, 1.0, 1.0), rule)
    const = sharp_constant("lsi_gauss", beta=beta).value
    return DeficitReport(
        "log-sobolev", ef.entropy - 0.5 * ef.fisher, const, const,
        hypotheses=hyps,
        params={"beta": beta, "n": 1, "entropy": ef.entropy,
                "fisher": ef.fisher})


def els_eigen_check(v: GridField, rule=None) -> DeficitReport:
    """Covariance-eigenvalue entropy bound (no convexity hypothesis):

    Ent <= I/2 - (1/2) sum_{beta_i <= 1} (log beta_i - 1 + 1/beta_i).
    """
    eigs = np.linalg.eigvalsh(covariance(v))
    ef = entropy_fisher(tilt(v, 1.0, 1.0), rule)
    correction = -0.5 * float(sum(np.log(b) - 1.0 + 1.0 / b
                                  for b in eigs if b <= 1.0))
    rhs = 0.5 * ef.fisher + correction
    return DeficitReport(
        "els-eigenvalue", ef.entropy, rhs, correction,
        params={"cov_eigenvalues": eigs, "entropy": ef.entropy,
                "fisher": ef.fisher, "correction": correction})


# ---------------------------------------------------------------------------
# matrix (tensorised) variants


def _matrix_side(v1: GridField, v2: GridField, B: np.ndarray, eigs,
                 logc, side: str = None):
    """Pick the certified side, preferring the stronger passing statement.

    Statement strength is measured by the restricted correction sum
    -(1/2) sum (log b - 1 + 1/b): more negative means a tighter bound.  When
    neither side certifies, the one with the better margin is reported.
    A given log-concavity certificate ``logc`` must pass for the convex side.
    """
    certs = {s: certify_matrix(v1, v2, B, s) for s in ("convex", "concave")}
    if side is not None:
        if side not in certs:
            raise ParameterError("side must be 'convex' or 'concave'")
        return side, certs[side]

    def strength(s):
        rel = [b for b in eigs if (b >= 1.0 if s == "convex" else b <= 1.0)]
        return -0.5 * sum(np.log(b) - 1.0 + 1.0 / b for b in rel)

    passing = [s for s in certs if certs[s].passed]
    if logc is not None and "convex" in passing and not logc.passed:
        passing.remove("convex")
    if passing:
        best = min(passing, key=strength)
        return best, certs[best]
    best = max(certs, key=lambda s: certs[s].margin)
    return best, certs[best]


def matrix_check(v1: GridField, v2: GridField, B: np.ndarray, triple=None,
                 which: str = "lsi", rule=None, side: str = None
                 ) -> DeficitReport:
    """n = 2 variants for the product density v = v1 (x) v2 with matrix
    curvature bound grad^2 log v vs -B^{-1}, B symmetric positive definite.

    Convex side (>= -B^{-1}) restricts corrections to eigenvalues >= 1;
    concave side (<= -B^{-1}) to eigenvalues <= 1.  The Talagrand variant on
    the convex side additionally needs grad^2 log v <= 0.  ``side`` forces a
    particular statement; by default the stronger certified one is used.

    Every quantity comes from the factors: P_s, the L^q(gamma) norm and the
    mass of v/gamma factorise; with m_i the mass of v_i/gamma, Ent = m2 Ent_1
    + m1 Ent_2 and I = m2 I_1 + m1 I_2; and W_2^2(gamma_2, v) =
    W_2^2(gamma, v1) + W_2^2(gamma, v2).
    """
    if which not in ("hc", "lsi", "talagrand"):
        raise ParameterError(f"unknown variant {which!r}")
    B = np.asarray(B, float)
    if B.shape != (2, 2):
        raise ParameterError("B must be a 2 x 2 matrix")
    eigs = np.linalg.eigvalsh(B)
    if np.any(eigs <= 0):
        raise ParameterError("B must be positive definite")

    logc = certify_log_concave(v1, v2) if which == "talagrand" else None
    side, cert = _matrix_side(v1, v2, B, eigs, logc, side)
    hyps = [cert] + ([logc] if logc is not None and side == "convex" else [])
    relevant = [b for b in eigs if (b >= 1.0 if side == "convex" else b <= 1.0)]

    m1, m2 = (float(np.exp(log_hc_norm(v, 1.0, 1.0, 0.0, rule)))
              for v in (v1, v2))
    if which == "hc":
        if triple is None or triple.regime != "forward":
            raise InadmissibleExponentError("matrix hc needs a forward triple")
        lhs = float(np.exp(sum(log_hc_norm(v, triple.p, triple.q, triple.s,
                                           rule) for v in (v1, v2))))
        const = float(np.prod([
            sharp_constant("hc_ratio", beta=b, triple=triple).value
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
        correction = -0.5 * float(sum(np.log(b) - 1.0 + 1.0 / b
                                      for b in relevant))
        rhs = 0.5 * fisher + correction
        return DeficitReport(
            "matrix-log-sobolev", ent, rhs, correction, hypotheses=hyps,
            params={"which": which, "side": side, "eigenvalues": eigs,
                    "entropy": ent, "fisher": fisher})

    cost = sum(w2(gaussian_field(v.grid, 1.0), v) ** 2 for v in (v1, v2))
    ent = (m2 * relative_entropy_gauss(v1, rule)
           + m1 * relative_entropy_gauss(v2, rule))
    const = float(sum(1.0 + 0.5 * np.log(b) - np.sqrt(b) for b in relevant))
    return DeficitReport(
        "matrix-talagrand", 0.5 * cost - ent, const, const, hypotheses=hyps,
        params={"which": which, "side": side, "eigenvalues": eigs,
                "w2_sq": cost, "entropy": ent})


# ---------------------------------------------------------------------------
# Poincare and Beckner


def _grad_sq_gauss(f: GridField, rule) -> float:
    """int |f'|^2 dgamma, with f' = f (log f)' from the exact (log f)'
    closure; a field without one is refused by GridField.dlog."""
    z, w = rule.nodes, rule.weights
    df = f(z) * f.dlog(z)
    return float((df * df) @ w)


def poincare_check(f: GridField, beta: float, rule=None) -> DeficitReport:
    """Sharpened Poincare inequality

        (1/2)(1 + D_n(beta)) int f^2 dgamma - (1/2)(int |f| dgamma)^2
            <= int |f'|^2 dgamma

    with the curvature hypothesis placed on gamma f^2.  The intermediate
    L^2-vs-L^1 entropy inequality (its p = 1 form) is recorded in params.
    """
    rule = _rule_or_default(rule)
    hyps = _certificate_hypotheses(tilt(f, 2.0, -1.0).field(f.grid), beta)
    z, wts = rule.nodes, rule.weights
    fv = np.asarray(f(z), float)
    int_f2 = float((fv * fv) @ wts)
    int_absf = float(np.abs(fv) @ wts)
    grad = _grad_sq_gauss(f, rule)
    dn = sharp_constant("dn", beta=beta).value
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
                  rule=None) -> DeficitReport:
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
    rule = _rule_or_default(rule)
    z, wts = rule.nodes, rule.weights
    fv = np.asarray(f(z), float)
    if np.any(fv < 0):
        raise ParameterError("beckner_check needs nonnegative f")
    hyps = _certificate_hypotheses(tilt(f, p, -1.0).field(f.grid), beta)
    int_f2 = float((fv * fv) @ wts)
    int_fp = float((fv ** p) @ wts)
    grad = _grad_sq_gauss(f, rule)
    bconst = sharp_constant("beckner_b", p=p, beta=beta).value
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


def _bl_case(c1: float, c2: float) -> str:
    if 0 < c1 < 1 and 0 < c2 < 1:
        return "forward"
    if c1 * c2 < 0:
        return "reverse-mixed"
    if c1 > 1 and c2 > 1:
        return "reverse-concave"
    raise ParameterError(f"(c1, c2) = ({c1}, {c2}) not in a covered case")


def brascamp_lieb_check(f1: GridField, f2: GridField,
                        triple: ExponentTriple, beta: float) -> DeficitReport:
    """Dual-form sharpened Brascamp-Lieb inequality on R^2.

    With c1 = 1/p, c2 = 1/q' and the Gaussian kernel matrix Q built from s,
    compares the double integral of e^{-pi x.Qx} f1(x1)^{c1} f2(x2)^{c2}
    against H(c1,c2) ||P_s[(gamma_beta/gamma)^{c1}]||_{(1/c2)'} (int f1)^{c1}
    (int f2)^{c2}, the masses by log_hc_norm.  Case (c1,c2 in (0,1),
    beta>1): <=; case (c1c2<0, beta>1) and case (c1,c2>1, beta<1): >=.
    """
    c1 = 1.0 / triple.p
    c2 = 1.0 - 1.0 / triple.q  # 1/q'
    s = triple.s
    e2s = float(np.exp(-2.0 * s))
    scaling = c1 + c2 - 1.0 - (1.0 - e2s) * c1 * c2
    if abs(scaling) > 1e-10:
        raise InadmissibleExponentError(
            f"scaling condition violated by {scaling:.2e}")
    case = _bl_case(c1, c2)
    expected_dir = "le" if case == "forward" else "ge"

    if case in ("forward", "reverse-mixed"):
        hyps = [HypothesisCheck("beta>1", beta - 1.0, 0.0),
                replace(certify(f1, "convex", max(beta, 1.0)),
                        name="log f1'' >= -1/beta")]
    else:
        hyps = [HypothesisCheck("beta<1", 1.0 - beta, 0.0),
                replace(certify(f1, "concave", min(beta, 1.0)),
                        name="log f1'' <= -1/beta")]

    # 2-D trapezoid of the Gaussian-kernel double integral on nested grids of
    # stride k, from >= 64 intervals per axis down until two levels agree to
    # 1e-14 relative; an unresolved integrand ends on the full grid
    q11 = (1.0 - (1.0 - e2s) * c1) / (2.0 * (1.0 - e2s))
    q22 = (1.0 - (1.0 - e2s) * c2) / (2.0 * (1.0 - e2s))
    q12 = -float(np.exp(-s)) / (2.0 * (1.0 - e2s))
    x1, x2 = f1.grid.points, f2.grid.points
    l1 = c1 * f1.grid_log()
    l2 = c2 * f2.grid_log()

    def trapezoid(k):
        X1, X2 = x1[::k, None], x2[None, ::k]
        log_int = (-(q11 * X1 * X1 + 2.0 * q12 * X1 * X2 + q22 * X2 * X2)
                   + l1[::k, None] + l2[None, ::k])
        h1, h2 = f1.grid.spacing * k, f2.grid.spacing * k
        return np.trapezoid(np.trapezoid(np.exp(log_int), dx=h2), dx=h1)

    lhs = np.nan

    def refine(k):
        nonlocal lhs
        prev, lhs = lhs, trapezoid(k)
        with np.errstate(invalid="ignore", divide="ignore"):
            return abs(lhs - prev) / abs(lhs)

    k, gap = _refine_strides(
        refine, _coarsest_stride(x1.size - 1, x2.size - 1), 1e-14)

    h_const = sharp_constant("bl_h", c1=c1, c2=c2, s=s).value
    # ||P_s[(gamma_beta/gamma)^{c1}]||_{(1/c2)'} with c1 = 1/p, (1/c2)' = q
    script_h = h_const * float(np.exp(log_hc_norm(
        LogQuad.gaussian(beta), triple.p, triple.q, s)))
    m1, m2 = (float(np.exp(log_hc_norm(f, 1.0, 1.0, 0.0))) for f in (f1, f2))
    rhs = script_h * m1 ** c1 * m2 ** c2
    return DeficitReport(
        "brascamp-lieb", lhs, rhs, script_h, direction=expected_dir,
        hypotheses=hyps,
        params={"beta": beta, "c1": c1, "c2": c2, "s": s, "case": case,
                "classical_const": h_const, "mass_f1": m1, "mass_f2": m2,
                "trapezoid_n": x1[::k].size, "trapezoid_gap": float(gap)})


# ---------------------------------------------------------------------------
# counterexamples


def counterexample_mixture(a: float, grid: Grid1D = None,
                           rule=None) -> DeficitReport:
    """Two-bump Gaussian mixture (1/2) gamma(.+a) + (1/2) gamma(.-a).

    Its covariance 1 + a^2 blows up while the LSI deficit Ent - I/2 stays
    bounded, so the regularised LSI at beta = cov fails for large a: the
    report shows negative slack together with the failed subharmonicity
    certificate.
    """
    if a < 0:
        raise ParameterError("a must be nonnegative")
    grid = grid or default_grid()
    if a == 0:
        v = field_from_family(grid, LogQuad.gaussian(1.0))
        cov = 1.0
    else:
        v = field_from_family(grid, symmetric_mixture(a, 1.0))
        cov = 1.0 + a * a
    report = lsi_check(v, cov, rule)
    return replace(report, params={**report.params, "a": a,
                                   "covariance": cov})


@dataclass(frozen=True)
class SuperharmonicTrace:
    """Laplacian of log P_t f for f = e^{x1 x2} (closed form and on-grid)."""

    t: float
    delta_log_f: float
    delta_log_ptf: float       # exact: constant in x
    grid_min: float            # min of the FD Laplacian over interior points
    grid_max: float


def log_ptf_bilinear(t: float):
    """Exact log P_t[e^{x1 x2}]: complete-the-square in both kernel variables.

    With e = e^{-t}, sig^2 = 1 - e^{-2t}, c = sig^2:
    log P_t f = e^2 x1 x2 + [a^2 (1-c^2) + (b + a c)^2] / (2 (1-c^2))
                - (1/2) log(1-c^2),   a = sig e x2, b = sig e x1.
    """
    e = float(np.exp(-t))
    sig = float(np.sqrt(1.0 - e * e))
    c = sig * sig

    def log_fn(x1, x2):
        x1 = np.asarray(x1, float)
        x2 = np.asarray(x2, float)
        a = sig * e * x2
        b = sig * e * x1
        return (e * e * x1 * x2 + 0.5 * a * a
                + (b + a * c) ** 2 / (2.0 * (1.0 - c * c))
                - 0.5 * np.log(1.0 - c * c))

    return log_fn


def counterexample_superharmonic(t: float) -> SuperharmonicTrace:
    """f = e^{x1 x2} has Delta log f = 0, yet Delta log P_t f > 0 for t > 0.

    The Laplacian is sampled on the square mesh of [-8, 8]^2, 257 points a
    side.
    """
    if t <= 0:
        raise ParameterError("t must be positive")
    grid = Grid1D(-8.0, 8.0, 257)
    e2 = float(np.exp(-2.0 * t))
    sig2 = 1.0 - e2
    exact = 2.0 * sig2 * e2 / (1.0 - sig2 * sig2)
    log_fn = log_ptf_bilinear(t)
    h = 1e-4
    X, Y = np.meshgrid(grid.points, grid.points, indexing="ij")
    lap = ((log_fn(X + h, Y) + log_fn(X - h, Y) + log_fn(X, Y + h)
            + log_fn(X, Y - h) - 4.0 * log_fn(X, Y)) / h**2)
    inner = lap[2:-2, 2:-2]
    return SuperharmonicTrace(t, 0.0, float(exact),
                              float(np.min(inner)), float(np.max(inner)))


# ---------------------------------------------------------------------------
# seeded input generators for the property suites


def make_fp_input(rng: np.random.Generator, beta: float,
                  grid: Grid1D = None) -> GridField:
    """A random member of FP(beta): automatically beta-semi-log-convex."""
    k = int(rng.integers(1, 9))
    points = rng.uniform(-3.0, 3.0, size=k)
    weights = rng.dirichlet(np.ones(k))
    return fp_class_member(MeasureSpec(points, weights), beta, grid=grid)


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
                          grid: Grid1D = None) -> GridField:
    """A random beta-semi-log-concave density: a narrower Gaussian times
    e^{-(smooth convex bump)}, renormalized on the grid."""
    if beta >= 1:
        raise ParameterError("generator intended for beta < 1")
    base = beta * float(rng.uniform(0.55, 0.95))
    eps = float(rng.uniform(0.0, 0.3))
    m = float(rng.uniform(-1.0, 1.0))
    return _bumped_gaussian(LogQuad.gaussian(base), eps, m,
                            grid or default_grid())


def make_talagrand_input(rng: np.random.Generator, beta: float,
                         grid: Grid1D = None) -> GridField:
    """A random density satisfying the transport-inequality hypotheses.

    For beta >= 1 that is 0 >= (log v)'' >= -1/beta: a shifted Gaussian of
    variance b >= beta times a convex-bump factor small enough to keep the
    curvature above -1/beta.  For beta < 1 the beta-semi-log-concave
    generator already qualifies.
    """
    grid = grid or default_grid()
    if beta < 1:
        return make_logconcave_input(rng, beta, grid)
    b = beta * float(rng.uniform(1.1, 3.0))
    eps = float(rng.uniform(0.0, 0.9)) * (1.0 / beta - 1.0 / b)
    m = float(rng.uniform(-1.0, 1.0))
    return _bumped_gaussian(LogQuad.gaussian(b, m), eps, m, grid)


def sample_reverse_triple(rng: np.random.Generator,
                          same_sign: bool) -> ExponentTriple:
    """Random reverse-regime (p, q, s) avoiding p in {0, 1-e^{-2s}} by 0.05."""
    for _ in range(200):
        if same_sign:
            p = float(rng.uniform(0.15, 0.9))
            q = float(rng.uniform(0.02, p - 0.05))
        else:
            p = float(rng.uniform(0.2, 0.8))
            q = float(rng.uniform(-2.0, -0.1))
        try:
            triple = ExponentTriple.from_pq(p, q)
        except InadmissibleExponentError:
            continue
        band = 1.0 - np.exp(-2.0 * triple.s)
        if abs(p) >= 0.05 and abs(p - band) >= 0.05:
            return triple
    raise ParameterError("failed to sample an admissible reverse triple")
