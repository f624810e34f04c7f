"""Boundedness certificates for the weak-observer shape matrix and the fused
estimate: scalar envelopes f, q, p2 bounding the shape recursion, the
windowed-Grammian alternative for insufficiently stable blocks, and the
resulting uniform matrix bounds on the fused shape.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import (CaseNotApplicableError, CertificateUnavailableError,
                     InvalidParameterError)
from .numerics import (GRID_SUP_SAFETY, compensated_sup, expm, min_eigval,
                       simpson_matrix, spectral_norm, symmetrize)
from .weak import (NO_STACKING, build_Ku, quad_kernels, stacking_gain,
                   update_is_informative)

#: series switch-over for the (e^x - 1)/x factor
_EXPM1_SERIES_CUTOFF = 1e-4


def expm1_over_x(x: float) -> float:
    """(e^x - 1)/x, series-evaluated near zero for stability."""
    if abs(x) < _EXPM1_SERIES_CUTOFF:
        return 1.0 + x / 2.0 + x * x / 6.0
    return float(np.expm1(x) / x)


@dataclass(frozen=True)
class AssumptionConstants:
    """Declared or harvested uniform bounds on the per-step parameters.

    ``source`` records how the constants were obtained: "declared" for
    user-supplied values, "harvested" for pilot-run extremes with margin.
    """

    alpha_lo: float
    alpha_hi: float
    beta_lo: float
    beta_hi: float
    w_lo: float
    w_hi: float
    source: str = "declared"

    def __post_init__(self):
        if not (0.0 < self.alpha_lo <= self.alpha_hi < 1.0):
            raise InvalidParameterError("alpha bounds must satisfy 0<lo<=hi<1")
        if not (0.0 <= self.beta_lo <= self.beta_hi < 1.0):
            raise InvalidParameterError("beta bounds must satisfy 0<=lo<=hi<1")
        if not (0.0 <= self.w_lo <= self.w_hi):
            raise InvalidParameterError("w bounds must be ordered and >= 0")


@dataclass
class CertificateReport:
    """All scalar certificate quantities plus the case actually used."""

    alpha_lo: float
    alpha_hi: float
    beta_lo: float
    beta_hi: float
    w_lo: float
    w_hi: float
    eps1_lo: float
    eps1_hi: float
    gamma1_lo: float = np.nan
    gamma1_hi: float = np.nan
    gamma2_lo: float = np.nan
    gamma2_hi: float = np.nan
    b2: float = np.nan
    c2: float = np.nan
    d2: float = np.nan
    lambda2_hi: float = np.nan
    a2_hi: float = np.nan
    lambda2_lo: float = np.nan
    a2_lo: float = np.nan
    kappa1: float = np.nan
    kappa2: float = np.nan
    f_bar: float = np.nan
    q_bar: float = np.nan
    q_lo: float = np.nan
    p2_lo: float = np.nan
    p2_hi_seq: list = field(default_factory=list)
    p2_hi: float = np.nan
    rho_lo: float = np.nan
    r: int = 0
    phi: float = np.nan
    mu1_lo: float = np.nan
    mu1_hi: float = np.nan
    mu2_lo: float = np.nan
    mu2_hi: float = np.nan
    P_lo: np.ndarray | None = None
    P_hi: np.ndarray | None = None
    sufficient_stability_margin: float = np.nan
    case: str = "none"
    reason: str = ""

    def to_dict(self) -> dict:
        d = asdict(self)
        for key in ("P_lo", "P_hi"):
            if d[key] is not None:
                d[key] = np.asarray(d[key]).tolist()
        d["p2_hi_seq"] = [float(v) for v in d["p2_hi_seq"]]
        for k, v in list(d.items()):
            if isinstance(v, (np.floating, np.integer)):
                d[k] = float(v)
        return d

    def shape_inconsistency(self, P2: np.ndarray,
                            P: np.ndarray) -> str | None:
        """The first step at which a realized shape breaks the certificate,
        described; None when the run respects every bound.  ``P2`` is the
        (N+1, n2, n2) stack of weak-block shapes, whose eigenvalues must lie
        in [p2_lo, p2_hi]; ``P`` the (N+1, n, n) stack of fused shapes,
        which must lie in the Theorem 2 sandwich P_lo <= P_k <= P_hi.  Each
        side's tolerance scales with its own upper matrix: -1e-9 tr P_k
        below, -1e-9 tr P_hi above, so a vacuous P_hi cannot excuse a P_k
        below P_lo."""
        checks = []       # (failing steps, values, bounds, description)
        if P2.size:
            lam = np.linalg.eigvalsh(P2)
            lo, hi = lam[:, 0], lam[:, -1]
            if self.p2_lo > 0.0:
                checks.append((lo < self.p2_lo * (1.0 - 1e-9), lo, self.p2_lo,
                               "lambda_min {:.6g} < p2_lo {:.6g}"))
            checks.append((hi > self.p2_hi * (1.0 + 1e-9), hi, self.p2_hi,
                           "lambda_max {:.6g} > p2_hi {:.6g}"))
        for name, gap, upper in (("P_k - P_lo", P - self.P_lo, P),
                                 ("P_hi - P_k", self.P_hi - P, self.P_hi)):
            low = np.linalg.eigvalsh(gap)[:, 0]
            tol = -1e-9 * np.trace(upper, axis1=-2, axis2=-1)
            checks.append((low < tol, low, tol,
                           f"lambda_min({name}) {{:.6g}} < {{:.6g}}"))
        firsts = [(int(np.argmax(bad)), values, bounds, text)
                  for bad, values, bounds, text in checks if bad.any()]
        if not firsts:
            return None
        k, values, bounds, text = min(firsts, key=lambda first: first[0])
        return f"step {k}: " + text.format(
            values[k], np.broadcast_to(bounds, values.shape)[k])


def gamma_bounds(const: AssumptionConstants, eps1_lo: float, eps1_hi: float,
                 n1: int, n_w: int) -> tuple[float, float, float, float]:
    """Uniform bounds (gamma1_lo, gamma1_hi, gamma2_lo, gamma2_hi) on the
    input stacking gain pair.

    gamma_k = :func:`stacking_gain` of tr Kw in [n_w w_lo, n_w w_hi] against
    eps1 in [eps1_lo, eps1_hi]: gamma is monotone in tr Kw and anti-monotone
    in eps1, and gamma/(gamma-1) runs the other way.
    """
    if eps1_lo <= 0.0 or eps1_hi < eps1_lo:
        raise InvalidParameterError("eps1 bounds must be positive and ordered")
    if const.w_lo <= 0.0:
        raise InvalidParameterError("gamma bounds need w_lo > 0")
    g1_lo, g2_hi = stacking_gain(n_w * const.w_lo, eps1_hi, n1)
    g1_hi, g2_lo = stacking_gain(n_w * const.w_hi, eps1_lo, n1)
    return g1_lo, g1_hi, g2_lo, g2_hi


def exponential_envelopes(A4: np.ndarray, margin_scale: float = 0.05
                          ) -> tuple[float, float, float, float]:
    """Rate/amplitude envelopes for e^{A4 t} and e^{-A4 t}.

    Returns (lambda2_hi, a2_hi, lambda2_lo, a2_lo) with
    ||e^{A4 t}|| <= a2_hi e^{lambda2_hi t} and
    ||e^{-A4 t}|| <= a2_lo e^{lambda2_lo t} on the sampled grid.  The rates
    sit a margin above the respective spectral abscissas so the amplitude
    suprema are finite; both amplitudes carry the GRID_SUP_SAFETY factor.
    """
    A4 = np.atleast_2d(np.asarray(A4, dtype=float))
    if A4.shape[0] == 0:
        return 0.0, 1.0, 0.0, 1.0
    lam = np.linalg.eigvals(A4).real
    out = []
    for M, rate in ((A4, float(np.max(lam))), (-A4, float(np.max(-lam)))):
        shift = rate + margin_scale * (1.0 + abs(rate))
        out += [shift, GRID_SUP_SAFETY * compensated_sup(M, shift)]
    return tuple(out)


def grammian_kappa1(A4: np.ndarray, dt: float, substeps: int = 200) -> float:
    """lambda_min of the short-horizon Grammian int_0^dt e^{A4 s} e^{A4^T s} ds."""
    A4 = np.atleast_2d(np.asarray(A4, dtype=float))
    n2 = A4.shape[0]
    if n2 == 0:
        return 0.0
    if substeps % 2:
        substeps += 1
    h = dt / substeps
    P = quad_kernels(A4, h, substeps)[::-1]     # e^{A4 s}, s = 0, h, ..., dt
    G = symmetrize(simpson_matrix(P @ P.swapaxes(-1, -2), h))
    return max(min_eigval(G), 0.0)


def _row_space_sigma_min(M: np.ndarray) -> float:
    """sigma such that M M^T >= sigma^2 I; zero for row-rank-deficient M."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0 or M.shape[0] > M.shape[1]:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[-1])


def lemma5_bounds(rep: CertificateReport, dec, dt: float, P20_norm: float,
                  horizon_k: int) -> CertificateReport:
    """Fill in the shape-recursion envelopes f, q (upper), q (lower), the
    per-step upper-bound sequence, and the uniform lower bound p2_lo."""
    lo_prod = min(rep.gamma1_lo * rep.eps1_lo ** 2, rep.gamma2_lo * rep.w_lo)
    hi_prod = max(rep.gamma1_hi * rep.eps1_hi ** 2, rep.gamma2_hi * rep.w_hi)
    rep.b2 = spectral_norm(dec.B2p)
    rep.c2 = spectral_norm(dec.C2)
    rep.d2 = _row_space_sigma_min(dec.D2p)
    rep.kappa1 = grammian_kappa1(dec.A4, dt)
    rep.kappa2 = _row_space_sigma_min(dec.B2p)
    rep.f_bar = rep.a2_hi ** 2 * np.exp(2.0 * rep.lambda2_hi * dt) / rep.alpha_lo
    rep.q_bar = (dt * hi_prod * rep.a2_hi ** 2 * rep.b2 ** 2
                 * dt * expm1_over_x(2.0 * rep.lambda2_hi * dt)
                 / (1.0 - rep.alpha_hi))
    if rep.kappa2 <= 0.0:
        warnings.warn("B2p is row-rank deficient; lower bound q_lo = 0")
        rep.q_lo = 0.0
        rep.p2_lo = 0.0
    else:
        rep.q_lo = (rep.kappa1 * rep.kappa2 ** 2 * dt * lo_prod
                    / (1.0 - rep.alpha_lo))
        denom = (1.0 - rep.beta_lo) / rep.q_lo
        if rep.beta_hi > 0.0:
            denom += rep.beta_hi * rep.c2 ** 2 / (rep.d2 ** 2 * lo_prod)
        rep.p2_lo = 1.0 / denom
    seq = [P20_norm]
    # the affine recursion diverges cleanly to inf when f_bar is large;
    # inf entries simply mean no per-step bound is available there
    with np.errstate(over="ignore"):
        for _ in range(horizon_k):
            seq.append((rep.f_bar * seq[-1] + rep.q_bar)
                       / (1.0 - rep.beta_hi))
    rep.p2_hi_seq = seq
    return rep


def lemma6_uniform_bound(rep: CertificateReport, dt: float) -> float:
    """Uniform upper bound for the sufficiently stable case f < 1 - beta_hi."""
    if not rep.f_bar < 1.0 - rep.beta_hi:
        raise CaseNotApplicableError(
            f"requires f_bar < 1 - beta_hi (f_bar={rep.f_bar:.4g}, "
            f"1-beta_hi={1.0 - rep.beta_hi:.4g})")
    p2_hi = (rep.f_bar * rep.p2_hi_seq[0] / (1.0 - rep.beta_hi)
             + rep.q_bar / (1.0 - rep.beta_hi - rep.f_bar))
    # sufficient-stability condition on the decay rate (reported, not gating)
    rep.sufficient_stability_margin = (
        (np.log(1.0 - rep.beta_hi) + np.log(rep.alpha_lo)
         - 2.0 * np.log(rep.a2_hi)) / (2.0 * dt) - rep.lambda2_hi)
    return float(p2_hi)


def grammian_rho(dec, Gk_seq: list, r: int, dt: float) -> float:
    """Smallest windowed-Grammian eigenvalue over the supplied G_k sequence;
    a window that holds a G_k whose update the estimator skips
    (:func:`update_is_informative`) is skipped."""
    if r < 1:
        raise InvalidParameterError("window length r must be >= 1")
    n2, C2 = dec.n2, np.atleast_2d(dec.C2)
    G = np.asarray(Gk_seq, dtype=float).reshape(-1, C2.shape[0], C2.shape[0])
    N = G.shape[0]
    if n2 == 0 or not np.any(np.abs(C2) > 0.0) or N <= r:
        return 0.0
    ok = update_is_informative(dec, G)
    if not np.all(ok):
        warnings.warn("singular G_k excluded from Grammian window")
    terms = np.zeros((N, n2, n2))
    terms[ok] = C2.T @ np.linalg.solve(
        G[ok], np.broadcast_to(C2, (int(np.sum(ok)),) + C2.shape))
    # window k = r..N-1 sums M^T term_i M, M = e^{-(k-i) A4 dt}, newest first
    Einv = expm(-np.atleast_2d(dec.A4) * dt)
    S, M = np.zeros((N - r, n2, n2)), np.eye(n2)
    for step in range(r + 1):
        S += M.T @ terms[r - step:N - step] @ M
        M = Einv @ M
    whole = np.convolve(~ok, np.ones(r + 1, dtype=int), "valid") == 0
    if not np.any(whole):
        return 0.0
    rho = np.min(np.linalg.eigvalsh(symmetrize(S[whole]))[:, 0])
    return max(float(rho), 0.0)


def lemma7_uniform_bound(rep: CertificateReport, rho_lo: float, r: int,
                         dt: float) -> float:
    """Uniform upper bound for the marginal case via the Grammian window."""
    if rep.f_bar < 1.0 - rep.beta_hi:
        raise CaseNotApplicableError("applies only when f_bar >= 1 - beta_hi")
    if rho_lo <= 0.0:
        raise CertificateUnavailableError("Grammian lower bound rho is zero")
    if rep.beta_lo <= 0.0:
        raise CertificateUnavailableError(
            "requires beta_lo > 0 (measurement updates must engage)")
    if rep.p2_lo <= 0.0:
        raise CertificateUnavailableError("requires a positive p2_lo")
    phi = rep.alpha_lo / (1.0 + rep.a2_lo ** 2 * rep.q_bar
                          * np.exp(2.0 * rep.lambda2_lo * dt)
                          * rep.alpha_hi / rep.p2_lo)
    rep.phi = float(phi)
    rep.rho_lo = float(rho_lo)
    rep.r = int(r)
    transient = max(rep.p2_hi_seq[1:r + 1]) if r >= 1 else 0.0
    window = 1.0 / (rep.beta_lo * ((1.0 - rep.beta_hi) * phi) ** r * rho_lo)
    return float(max(transient, window))


def theorem2_bounds(rep: CertificateReport, P1: np.ndarray, n1: int,
                    n2: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform matrix bounds on the fused shape from the scalar envelopes.

    P_lo and P_hi map the stacked blocks of :func:`build_Ku` back through
    P1, at the smallest and at the largest envelope values.  The fusion
    gain mu = :func:`stacking_gain` of tr P2 in [n2 p2_lo, n2 p2_hi] against
    eps1 in [eps1_lo, eps1_hi] supplies the block gains.
    """
    if n2 == 0:
        gain_lo = gain_hi = NO_STACKING
    else:
        if not np.isfinite(rep.p2_hi):
            raise CertificateUnavailableError(
                "no uniform p2 upper bound available")
        if rep.p2_lo <= 0.0:
            raise CertificateUnavailableError(
                "no positive p2 lower bound available")
        rep.mu1_lo, rep.mu2_hi = stacking_gain(n2 * rep.p2_lo, rep.eps1_hi, n1)
        rep.mu1_hi, rep.mu2_lo = stacking_gain(n2 * rep.p2_hi, rep.eps1_lo, n1)
        gain_lo, gain_hi = (rep.mu1_lo, rep.mu2_lo), (rep.mu1_hi, rep.mu2_hi)
    Pinv = np.linalg.inv(np.atleast_2d(P1))
    D_lo = build_Ku(gain_lo, rep.eps1_lo, rep.p2_lo * np.eye(n2), n1)
    D_hi = build_Ku(gain_hi, rep.eps1_hi, rep.p2_hi * np.eye(n2), n1)
    return symmetrize(Pinv @ D_lo @ Pinv.T), symmetrize(Pinv @ D_hi @ Pinv.T)


def certify(dec, const: AssumptionConstants, eps1_lo: float, eps1_hi: float,
            dt: float, P20_norm: float, horizon_k: int,
            Gk_seq: np.ndarray | list = (), r: int | None = None,
            margin_scale: float = 0.05) -> CertificateReport:
    """Full certificate dispatch: envelopes, recursion bounds, then the
    stable-case bound if applicable, else the Grammian-window bound, else a
    report with case "none" and the failing precondition."""
    n1, n2, n_w = dec.n1, dec.n2, dec.system.n_w
    rep = CertificateReport(
        alpha_lo=const.alpha_lo, alpha_hi=const.alpha_hi,
        beta_lo=const.beta_lo, beta_hi=const.beta_hi,
        w_lo=const.w_lo, w_hi=const.w_hi,
        eps1_lo=eps1_lo, eps1_hi=eps1_hi)
    if n2 == 0:
        rep.case = "lemma6"
        rep.reason = "weakly unobservable block is empty; bound from eps1 alone"
        rep.P_lo, rep.P_hi = theorem2_bounds(rep, dec.P1, n1, n2)
        return rep
    (rep.gamma1_lo, rep.gamma1_hi,
     rep.gamma2_lo, rep.gamma2_hi) = gamma_bounds(const, eps1_lo, eps1_hi,
                                                  n1, n_w)
    (rep.lambda2_hi, rep.a2_hi,
     rep.lambda2_lo, rep.a2_lo) = exponential_envelopes(dec.A4, margin_scale)
    rep = lemma5_bounds(rep, dec, dt, P20_norm, horizon_k)
    if r is None:
        r = max(n2, 1)
    if rep.f_bar < 1.0 - rep.beta_hi:
        rep.p2_hi = lemma6_uniform_bound(rep, dt)
        rep.case = "lemma6"
    else:
        try:
            rho = grammian_rho(dec, Gk_seq, r, dt)
            rep.p2_hi = lemma7_uniform_bound(rep, rho, r, dt)
            rep.case = "lemma7"
        except (CertificateUnavailableError, InvalidParameterError) as exc:
            rep.case = "none"
            rep.reason = str(exc)
            return rep
    try:
        rep.P_lo, rep.P_hi = theorem2_bounds(rep, dec.P1, n1, n2)
    except CertificateUnavailableError as exc:
        rep.case = "none"
        rep.reason = str(exc)
    return rep
