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

Everything here is a shape or a gain and depends on the system only; the
x2 center is advanced with the other centers by ``pipeline.CenterLift``.
Only alpha_k, the
predicted shape, beta_k and the update depend on the previous shape, so
:func:`gamma_terms`, :func:`propagate` (M2k), :func:`gk_matrix`,
:func:`update_is_informative` and :func:`update_information` take every
step of a horizon at once, and :func:`shape_recursion` runs the rest.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dpotrf as potrf, dsyevd as syevd
from scipy.optimize import brentq

from .errors import (DegenerateInputError, InvalidParameterError,
                     SingularNoiseError)
from .numerics import expm, simpson_weights, symmetrize

#: clip applied when the closed-form alpha degenerates to an endpoint
ALPHA_CLIP = 1e-9

#: admissible interval of the update weight beta
BETA_LO, BETA_HI = 1e-6, 1.0 - 1e-6

#: relative variation on that interval below which the beta objective is flat
BETA_FLAT_TOL = 1e-12

#: gain pair when the second factor is empty: the ball enters uninflated
NO_STACKING = (1.0, np.inf)


def check_shape(P2: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor of ``P2``, or of each shape of a stack, if
    it is finite and positive definite, else :class:`InvalidParameterError`
    for the first bad shape.  The shape schedule checks each weak-block
    shape with it; one shape goes to LAPACK's potrf directly, since an
    update step factors one and :func:`optimize_beta` reuses the factor."""
    if P2.ndim > 2:  # one batch, else one at a time up to the bad shape
        if np.isfinite(P2).all():
            try:
                return np.linalg.cholesky(P2)
            except np.linalg.LinAlgError:
                pass
        return np.array([check_shape(P) for P in P2]).reshape(P2.shape)
    if not np.isfinite(P2).all():
        raise InvalidParameterError("weak-observer shape must be finite")
    L, fail = potrf(P2, lower=1, clean=1)
    if fail:
        raise InvalidParameterError("P2hat must be SPD")
    return L


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
    w = simpson_weights(substeps, dt / substeps)[:, None, None]
    return symmetrize(np.sum(w * (KBs @ Ku @ KBs.swapaxes(-1, -2)), axis=-3))


def gk_matrix(dec, Ku_tk: np.ndarray) -> np.ndarray:
    """Measurement-consistency shape G_k = D2' K_u(t_k) D2'^T, of one K_u
    or of each in a stack."""
    return symmetrize(dec.D2p @ Ku_tk @ dec.D2p.T)


def update_is_informative(dec, Gk: np.ndarray) -> np.ndarray:
    """False when the update must be skipped: C2 carries no information or
    the symmetric G_k is singular at the working tolerance, lam_min(G_k)
    <= 1e-10 lam_max(G_k).  Of one G_k, or per G_k of a stack."""
    if dec.n2 == 0 or not np.any(np.abs(dec.C2) > 0.0):
        return np.zeros(Gk.shape[:-2], dtype=bool)
    lam = np.linalg.eigvalsh(Gk)
    return lam[..., 0] > 1e-10 * lam[..., -1]


def update_information(dec, Gk: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(C2^T Gk^{-1} C2, Gk^{-1} C2) of one G_k or of each in a stack: the
    information that E(., Gk) holds about x2, and the factor of it that the
    update gain reads.  A G_k at which :func:`update_is_informative` skips
    the update raises :class:`SingularNoiseError`."""
    if not np.all(update_is_informative(dec, Gk)):
        raise SingularNoiseError("G_k is singular; skip the measurement update")
    GiC = np.linalg.solve(Gk, dec.C2)
    return symmetrize(dec.C2.T @ GiC), GiC


def optimize_beta(factor: np.ndarray, info: np.ndarray
                  ) -> tuple[float, np.ndarray, np.ndarray]:
    """Weight b minimizing f(b) = tr(((1-b) P^{-1} + b A)^{-1}), with
    ``factor`` the lower Cholesky factor L of the predicted shape P (as
    :func:`check_shape` returns it) and ``info`` A = C2^T Gk^{-1} C2 (from
    :func:`update_information`).  Returns (b, lam, V), the weight and the
    eigenbasis that :func:`measurement_update` reuses.

    The eigendecomposition L^T A L = U diag(lam) U^T gives the generalized
    one of the pair (A, P^{-1}): V = L U has V^T P^{-1} V = I and
    V^T A V = diag(lam) (Golub and Van Loan, Matrix Computations, sec.
    8.7), so f(b) = sum_i c_i / (1 - b + b lam_i) with c_i = ||v_i||^2,
    convex in b.  The weight is BETA_LO or BETA_HI where f' keeps its sign
    on that interval, else the one root of f'; a flat f gives 0.5.  It is
    scalar work, so it runs on Python floats after one direct syevd call.
    """
    lam, U, fail = syevd(factor.T @ info @ factor, lower=1)
    if fail:
        raise np.linalg.LinAlgError("eigenvalues did not converge")
    V = factor @ U
    terms = list(zip(lam.tolist(), (V * V).sum(axis=0).tolist()))

    def f(b: float) -> float:
        return sum(c / (1.0 - b + b * l) for l, c in terms)

    def df(b: float) -> float:
        return sum(c * (1.0 - l) / (1.0 - b + b * l) ** 2 for l, c in terms)

    beta = (BETA_LO if df(BETA_LO) >= 0.0 else BETA_HI if df(BETA_HI) <= 0.0
            else brentq(df, BETA_LO, BETA_HI))
    top = max(f(BETA_LO), f(BETA_HI))  # f is convex: its range is top - f(b)
    if top - f(beta) <= BETA_FLAT_TOL * max(top, 1.0):
        beta = 0.5
    return beta, lam, V


def measurement_update(V: np.ndarray, lam: np.ndarray, beta: float,
                       GiC: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Data update of the shape at mixing weight beta, in the eigenbasis
    (lam, V) of :func:`optimize_beta`, with ``GiC`` = Gk^{-1} C2.  Returns
    (P2, O_k): P2 = ((1-beta) P2_pred^{-1} + beta C2^T Gk^{-1} C2)^{-1} =
    V diag(1 / (1 - beta + beta lam)) V^T and O_k = beta P2 C2^T Gk^{-1};
    each run's center moves by O_k (y_k - C2 x2 - D2' u(t_k))."""
    if not 0.0 < beta < 1.0:
        raise InvalidParameterError("beta must lie in (0,1)")
    P2 = symmetrize((V / (1.0 - beta + beta * lam)) @ V.T)
    return P2, beta * P2 @ GiC.T


def shape_recursion(P2: np.ndarray, Em: np.ndarray, dtM2k: np.ndarray,
                    update: np.ndarray, info: np.ndarray, GiC: np.ndarray):
    """(alpha, beta, O) of steps 1..N, 0 where no update runs, and the
    predicted and updated shapes of steps 0..N, from the checked shape
    ``P2``, ``Em`` = e^{A4 dt}, the stack ``dtM2k`` = dt M2k and, where
    ``update`` is open, each step's :func:`update_information` pair.

    The shape is carried as u = vech(P): P_pred = Em P Em^T / a + dt M2k /
    (1 - a) is u <- K u / a + vech(dt M2k) / (1 - a), and alpha_k = a =
    sqrt(tp) / (sqrt(tp) + sqrt(tm)) minimizes tr P_pred, with tp =
    tr(Em P Em^T) = w . u and tm = tr(dt M2k).  A predicted shape that an
    update reads is checked at once, for its factor; the other shapes in
    one batch at the end, and the first bad one raises."""
    N, n2 = dtM2k.shape[0], dtM2k.shape[-1]
    rows, cols = np.tril_indices(n2)
    sym = np.empty((n2, n2), dtype=int)  # u[sym] is the shape of u
    sym[rows, cols] = sym[cols, rows] = np.arange(rows.size)
    dup = (sym.reshape(-1, 1) == np.arange(rows.size)).astype(float)
    K = np.kron(Em, Em)[rows * n2 + cols] @ dup
    w = (Em.T @ Em).reshape(-1) @ dup
    tm = np.trace(dtM2k, axis1=1, axis2=2)
    if not np.all(tm >= 0.0):
        raise InvalidParameterError("alpha_k traces must be nonnegative")
    m = dtM2k[:, rows, cols]
    alpha, beta = np.empty(N), np.zeros(N)
    O = np.zeros((N, n2, GiC.shape[-2]))
    u_pred, u_upd = np.empty((2, N + 1, rows.size))
    u = u_pred[0] = u_upd[0] = P2[rows, cols]
    unread = np.stack((~update, update), axis=1)  # shapes no update reads

    def check_before(k: int) -> None:
        both = np.stack((u_pred[1:k + 1], u_upd[1:k + 1]), axis=1)
        check_shape(both[unread[:k]][:, sym])

    for k, (tm_k, opens) in enumerate(zip(tm.tolist(), update.tolist())):
        tp = max(float(w @ u), 0.0)  # < 0 only past a shape that fails
        a = (math.sqrt(tp) / (math.sqrt(tp) + math.sqrt(tm_k))
             if tp + tm_k > 0.0 else 0.5)
        alpha[k] = a = min(max(a, ALPHA_CLIP), 1.0 - ALPHA_CLIP)
        u = u_pred[k + 1] = K @ u / a + m[k] / (1.0 - a)
        if opens:
            try:
                factor = check_shape(u[sym])
            except InvalidParameterError:
                check_before(k)  # an earlier bad shape raises first
                raise
            beta[k], lam, V = optimize_beta(factor, info[k])
            P, O[k] = measurement_update(V, lam, beta[k], GiC[k])
            u = P[rows, cols]
        u_upd[k + 1] = u
    check_before(N)
    return alpha, beta, u_pred[:, sym], u_upd[:, sym], O
