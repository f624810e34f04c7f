"""Discrete-time ellipsoidal set-membership observer for the weakly
unobservable block: reachable-set propagation, measurement update, and the
per-step parameter selectors alpha_k, beta_k, gamma_k.

It also owns the one stacking bound of the estimator.  The UIO ball
E(., eps1^2 I_n1) and a second ellipsoid E(., Q) stack into
E(., diag(g eps1^2 I_n1, g/(g-1) Q)) for any g > 1; :func:`stacking_gain`
gives the trace-optimal pair (g, g/(g-1)) and :func:`build_Ku` the stacked
block.  The weak block's input bound (Q = K_w: gamma_k, K_u, G_k), the fused
full-state set (Q = P2hat: mu_k) and the certificate's gain bounds all go
through these two functions.

Shapes and gains depend on the system only; the one center formula here is
:func:`center_drive`, the x2 block's quadrature drive.  Only alpha_k, the
predicted shape, beta_k and the update depend on the previous shape, so
:func:`gamma_terms`, :func:`propagate` (M2k), :func:`gk_matrix`,
:func:`update_is_informative` and :func:`update_information` take every
step of a horizon at once.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.optimize import brentq

from .errors import (DegenerateInputError, InvalidParameterError,
                     SingularInnovationError, SingularNoiseError)
from .numerics import expm, simpson_matrix, symmetrize

#: clip applied when the closed-form alpha degenerates to an endpoint
ALPHA_CLIP = 1e-9

#: admissible interval of the update weight beta
BETA_LO, BETA_HI = 1e-6, 1.0 - 1e-6

#: relative variation on that interval below which the beta objective is flat
BETA_FLAT_TOL = 1e-12

#: gain pair when the second factor is empty: the ball enters uninflated
NO_STACKING = (1.0, np.inf)


def check_shape(P2: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor of ``P2`` if it is finite and positive
    definite (shapes are symmetrized where they are formed), else
    :class:`InvalidParameterError`; the shape schedule checks each
    weak-block shape once with it, and :func:`optimize_beta` reuses the
    factor of each predicted one."""
    if not np.isfinite(P2).all():
        raise InvalidParameterError("weak-observer shape must be finite")
    try:
        return np.linalg.cholesky(P2)
    except np.linalg.LinAlgError:
        raise InvalidParameterError("P2hat must be SPD") from None


def stacking_gain(t2, eps1, n1: int):
    """(g, g/(g-1)) for stacking E(., eps1^2 I_n1) with a block of trace t2.

    g = 1 + s with s = sqrt(t2 / n1) / eps1 minimizes the trace of the
    product bound (Schweppe 1968; Durieu, Walter and Polyak 2001).  Both
    factors are formed from s directly, so an enormous eps1 (s underflowing
    next to 1) still yields a finite, correct g/(g-1) = 1 + 1/s.  Arrays of
    t2 and eps1 give one pair of arrays.
    """
    t2, eps1 = np.asarray(t2, dtype=float), np.asarray(eps1, dtype=float)
    if not np.all(eps1 > 0.0):
        raise InvalidParameterError("eps1 must be positive")
    if not np.all(t2 > 0.0) or n1 <= 0:
        raise DegenerateInputError("stacking gain needs positive traces")
    s = np.sqrt(t2 / n1) / eps1
    if not np.all(s > 0.0):
        raise DegenerateInputError("stacking ratio underflowed to zero")
    return 1.0 + s, 1.0 + 1.0 / s


def gamma_terms(Kw: np.ndarray, eps1, n1: int):
    """(gamma, gamma/(gamma-1)): the :func:`stacking_gain` of the combined
    (x1, w) input bound, gamma = 1 + sqrt(tr Kw / (n1 eps1^2)), for one
    K_w or for a stack of them against an array of eps1."""
    return stacking_gain(np.trace(np.atleast_2d(Kw), axis1=-2, axis2=-1),
                         eps1, n1)


def build_Ku(gain: tuple[float, float], eps1: float | np.ndarray,
             Q: np.ndarray, n1: int) -> np.ndarray:
    """The stacked block diag(g1 eps1^2 I_n1, g2 Q) of the product bound.

    ``gain`` is a pair (g1, g2), normally (g, g/(g-1)) from
    :func:`stacking_gain`; with Q = K_w this is the input bound K_u.
    Arrays of g1, g2 and eps1 and a stack of Q broadcast to one block per
    entry: an (m,) array of eps1 with an (m, q, q) stack gives m blocks.
    """
    g1, g2 = (np.asarray(g, dtype=float) for g in gain)
    eps1 = np.asarray(eps1, dtype=float)
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    n = n1 + Q.shape[-1]
    Ku = np.zeros(np.broadcast_shapes(g1.shape, g2.shape, eps1.shape,
                                      Q.shape[:-2]) + (n, n))
    diag = np.arange(n1)
    Ku[..., diag, diag] = (g1 * eps1 ** 2)[..., None]
    Ku[..., n1:, n1:] = g2[..., None, None] * Q
    return symmetrize(Ku)


def quad_kernels(A4: np.ndarray, h: float, substeps: int) -> np.ndarray:
    """Kernels e^{A4 (t_k - tau_j)} = e^{A4 h}^(m-j), j = 0..m, on the
    quadrature grid of one step (m = substeps); kernels[0] = e^{A4 m h}.

    The result is read-only: one stack serves every step of a schedule.
    """
    A4 = np.atleast_2d(np.asarray(A4, dtype=float))
    Eh = expm(A4 * h)
    kernels = np.empty((substeps + 1,) + A4.shape)
    P = np.eye(A4.shape[0])
    for j in range(substeps, -1, -1):
        kernels[j] = P
        P = Eh @ P
    kernels.setflags(write=False)
    return kernels


def alpha_k(M2k: np.ndarray, Ed: np.ndarray, P2: np.ndarray,
            dt: float) -> float:
    """Trace-minimizing mixing weight for the predicted shape matrix.

    Minimizes tr(Ed P2 Ed^T / a + dt M2k / (1-a)) over a in (0,1), with
    Ed = e^{A4 dt}; the minimizer is sqrt(tp) / (sqrt(tp) + sqrt(dt tm))
    with tp, tm the two traces.  Degenerate endpoints are clipped into (0,1).
    """
    tp = float((Ed @ np.atleast_2d(P2) @ Ed.T).trace())
    tm = float(np.atleast_2d(M2k).trace())
    if tp < 0.0 or tm < 0.0:
        raise InvalidParameterError("alpha_k traces must be nonnegative")
    if tp == 0.0 and tm == 0.0:
        warnings.warn("alpha_k: both traces vanish; defaulting to 0.5")
        return 0.5
    # scalar math: this runs once per step of every shape schedule
    a = math.sqrt(tp) / (math.sqrt(tp) + math.sqrt(dt * tm))
    return min(max(a, ALPHA_CLIP), 1.0 - ALPHA_CLIP)


def propagate(dec, eps1_q: np.ndarray, Kw_q: np.ndarray, dt: float,
              gain: tuple, kernels: np.ndarray) -> np.ndarray:
    """The (N, n2, n2) input terms M2k of N steps' shape time updates.

    ``eps1_q`` (N, m+1) and ``Kw_q`` (N, m+1, n_w, n_w) sample eps1 and
    K_w on the m + 1 quadrature nodes of each step [t_{k-1}, t_k], with m
    even and at least 2; ``kernels`` is :func:`quad_kernels` of that grid
    and ``gain`` each step's :func:`gamma_terms` pair.  M2k integrates
    e^{A4 (t_k - tau)} B2' K_u B2'^T e^{A4^T (t_k - tau)} over one
    :func:`build_Ku` stack of every step's and node's K_u.
    """
    substeps = kernels.shape[0] - 1
    if substeps < 2 or substeps % 2:
        raise InvalidParameterError("substeps must be even and >= 2")
    Ku = build_Ku(tuple(np.asarray(g)[..., None] for g in gain), eps1_q,
                  Kw_q, dec.n1)
    KBs = kernels @ dec.B2p
    # Simpson over the node axis, put first as simpson_matrix expects
    terms = (KBs @ Ku @ KBs.swapaxes(-1, -2)).swapaxes(0, 1)
    return symmetrize(simpson_matrix(terms, dt / substeps))


def predict_shape(P2: np.ndarray, M2k: np.ndarray, dt: float,
                  kernels: np.ndarray, Ed: np.ndarray
                  ) -> tuple[np.ndarray, float]:
    """Time update of the shape by the two-term outer bound: (P2_pred, a)
    with P2_pred = Em P2 Em^T / a + dt M2k / (1 - a), Em = kernels[0], a =
    :func:`alpha_k` at ``Ed`` = e^{A4 dt} and M2k from :func:`propagate`.
    """
    a = alpha_k(M2k, Ed, P2, dt)
    Em = kernels[0]  # Eh^m = e^{A4 dt}
    return symmetrize(Em @ P2 @ Em.T / a + dt * M2k / (1.0 - a)), a


def center_drive(B2p: np.ndarray, dt: float,
                 kernels: np.ndarray) -> np.ndarray:
    """The (m+1, n2, n1+n_w) stack h w_j e^{A4 (t_k - tau_j)} B2', w_j the
    composite Simpson weights (1, 4, 2, ..., 4, 1) / 3 on the m + 1
    quadrature nodes of :func:`quad_kernels`.

    The predicted x2 center of a step is e^{A4 dt} x2 + sum_j drive[j]
    u(tau_j), which integrates e^{A4 (t_k - tau)} B2' u by Simpson's rule,
    with u = col(x1hat, c_w) on the nodes.
    """
    m = kernels.shape[0] - 1
    w = np.where(np.arange(m + 1) % 2, 4.0, 2.0)
    w[0] = w[-1] = 1.0
    return (dt / m / 3.0 * w)[:, None, None] * (kernels @ B2p)


def gk_matrix(dec, Ku_tk: np.ndarray) -> np.ndarray:
    """Measurement-consistency shape G_k = D2' K_u(t_k) D2'^T, of one K_u
    or of each in a stack."""
    return symmetrize(dec.D2p @ Ku_tk @ dec.D2p.T)


def update_is_informative(dec, Gk: np.ndarray,
                          rank_tol: float = 1e-10) -> np.ndarray:
    """False when the update must be skipped: C2 carries no information or
    G_k is singular at the working tolerance.  Of one G_k, or per G_k of a
    stack."""
    if dec.n2 == 0 or not np.any(np.abs(dec.C2) > 0.0):
        return np.zeros(Gk.shape[:-2], dtype=bool)
    scale = np.linalg.norm(Gk, 2, axis=(-2, -1))
    lam_min = np.linalg.eigvalsh(symmetrize(Gk))[..., 0]
    return (scale > 0.0) & (lam_min > rank_tol * scale)


def update_information(C2: np.ndarray, Gk: np.ndarray) -> np.ndarray:
    """The information C2^T Gk^{-1} C2 that the measurement set E(., Gk)
    holds about x2, of one G_k or of each in a stack.  A symmetric ``Gk``
    that is singular or indefinite (lam_min <= 1e-14 max(1, lam_max))
    raises :class:`SingularNoiseError`.  It depends on G_k alone, so the
    shape schedule takes it for every update step at once."""
    lam_G = np.linalg.eigvalsh(Gk)
    if not np.all(lam_G[..., 0] > 1e-14 * np.maximum(1.0, lam_G[..., -1])):
        raise SingularNoiseError("G_k is singular; skip the measurement update")
    return symmetrize(C2.T @ np.linalg.solve(Gk, C2))


def optimize_beta(factor: np.ndarray, info: np.ndarray) -> float:
    """Weight b minimizing f(b) = tr(((1-b) P^{-1} + b A)^{-1}), with
    ``factor`` the lower Cholesky factor L of the predicted shape P (as
    :func:`check_shape` returns it) and ``info`` A = C2^T Gk^{-1} C2 (from
    :func:`update_information`).

    The eigendecomposition L^T A L = U diag(lam) U^T gives the generalized
    one of the pair (A, P^{-1}): V = L U has V^T P^{-1} V = I and
    V^T A V = diag(lam) (Golub and Van Loan, Matrix Computations, sec.
    8.7), so f(b) = sum_i c_i / (1 - b + b lam_i) with c_i = ||v_i||^2,
    convex in b.  The weight is BETA_LO or BETA_HI where f' keeps its sign
    on that interval, else the one root of f'; a flat f gives 0.5.
    """
    lam, U = np.linalg.eigh(symmetrize(factor.T @ info @ factor))
    c = ((factor @ U) ** 2).sum(axis=0)
    dc = c * (1.0 - lam)

    def df(b: float) -> float:
        return float((dc / (1.0 - b + b * lam) ** 2).sum())

    if df(BETA_LO) >= 0.0:
        beta = BETA_LO
    elif df(BETA_HI) <= 0.0:
        beta = BETA_HI
    else:
        beta = brentq(df, BETA_LO, BETA_HI)
    # f is convex: its variation on the interval is top - f(beta)
    bs = np.array([[BETA_LO], [BETA_HI], [beta]])
    f_lo, f_hi, f_beta = (c / (1.0 - bs + bs * lam)).sum(axis=1)
    top = max(f_lo, f_hi)
    if top - f_beta <= BETA_FLAT_TOL * max(top, 1.0):
        return 0.5
    return float(beta)


def measurement_update(P2_pred: np.ndarray, C2: np.ndarray, beta: float,
                       Gk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Data update of the shape: fuses the prediction with the measurement
    set E(., Gk) at mixing weight beta.  Returns (P2, O_k); each run's
    center moves by O_k (y_k - C2 x2 - D2' u(t_k))."""
    if not 0.0 < beta < 1.0:
        raise InvalidParameterError("beta must lie in (0,1)")
    S = symmetrize(C2 @ P2_pred @ C2.T / (1.0 - beta) + Gk / beta)
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise SingularInnovationError(
            "innovation matrix is not invertible") from None
    Ok = P2_pred @ C2.T @ np.linalg.inv(S) / (1.0 - beta)
    P2 = symmetrize((np.eye(P2_pred.shape[0]) - Ok @ C2) @ P2_pred
                    / (1.0 - beta))
    return P2, Ok


def woodbury_shape(P2_pred: np.ndarray, C2: np.ndarray, Gk: np.ndarray,
                   beta: float) -> np.ndarray:
    """Equivalent inverse-combination form of the updated shape matrix."""
    X = symmetrize((1.0 - beta) * np.linalg.inv(P2_pred)
                   + beta * C2.T @ np.linalg.solve(Gk, C2))
    return symmetrize(np.linalg.inv(X))
