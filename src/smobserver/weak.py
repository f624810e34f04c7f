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

Shapes and gains depend on the system only.  Centers may carry a trailing
run axis: ``propagate`` and ``measurement_update`` then compute the shape
once and advance every run's center with it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
from scipy.optimize import brentq

from .errors import (DegenerateInputError, InvalidParameterError,
                     SingularInnovationError, SingularNoiseError)
from .numerics import (expm, is_spd, min_eigval, simpson_matrix,
                       spectral_norm, symmetrize)

#: clip applied when the closed-form alpha degenerates to an endpoint
ALPHA_CLIP = 1e-9

#: admissible interval of the update weight beta
BETA_LO, BETA_HI = 1e-6, 1.0 - 1e-6

#: relative variation on that interval below which the beta objective is flat
BETA_FLAT_TOL = 1e-12

#: gain pair when the second factor is empty: the ball enters uninflated
NO_STACKING = (1.0, np.inf)


@dataclass
class WeakState:
    """Ellipsoidal estimate E(x2hat, P2hat) of the x2 block at step k.

    ``x2hat`` is (n2,) for one run or (n2, runs) for a batch sharing P2hat.
    Construction validates the shape; :func:`propagate` and
    :func:`measurement_update` return their shapes as new states, so each
    shape is checked once.
    """

    x2hat: np.ndarray
    P2hat: np.ndarray

    def __post_init__(self):
        self.x2hat = np.atleast_1d(np.asarray(self.x2hat, dtype=float))
        self.P2hat = np.atleast_2d(np.asarray(self.P2hat, dtype=float))
        n2 = self.x2hat.shape[0]
        if self.P2hat.shape != (n2, n2):
            raise InvalidParameterError("P2hat must be n2 x n2")
        if not (np.all(np.isfinite(self.x2hat))
                and np.all(np.isfinite(self.P2hat))):
            raise InvalidParameterError("weak-observer state must be finite")
        if n2 and not is_spd(self.P2hat):
            raise InvalidParameterError("P2hat must be SPD")
        self.P2hat = symmetrize(self.P2hat)


@dataclass
class StepInputs:
    """Per-step data on the quadrature grid of [t_{k-1}, t_k].

    All sample arrays share the leading axis (substeps + 1 nodes, endpoints
    included).  ``Kw_samples`` holds one SPD shape matrix per node.  For a
    batch, ``x1hat_samples`` and ``y_k`` carry a trailing run axis.
    """

    x1hat_samples: np.ndarray  # (m+1, n1[, runs])
    eps1_samples: np.ndarray   # (m+1,)
    cw_samples: np.ndarray     # (m+1, n_w)
    Kw_samples: np.ndarray     # (m+1, n_w, n_w)
    y_k: np.ndarray            # (n_y[, runs])

    def __post_init__(self):
        self.x1hat_samples = np.atleast_2d(
            np.asarray(self.x1hat_samples, dtype=float))
        self.eps1_samples = np.asarray(self.eps1_samples, dtype=float).ravel()
        self.cw_samples = np.atleast_2d(np.asarray(self.cw_samples, dtype=float))
        self.Kw_samples = np.asarray(self.Kw_samples, dtype=float)
        self.y_k = np.asarray(self.y_k, dtype=float)
        m1 = self.eps1_samples.shape[0]
        if (self.x1hat_samples.shape[0] != m1
                or self.cw_samples.shape[0] != m1
                or self.Kw_samples.shape[0] != m1):
            raise InvalidParameterError("step-input sample grids are misaligned")
        if np.any(self.eps1_samples <= 0.0):
            raise InvalidParameterError("eps1 samples must be positive")

    def u_samples(self) -> np.ndarray:
        """col(x1hat, c_w) on every node, (m+1, n1+n_w[, runs])."""
        x1, cw = self.x1hat_samples, self.cw_samples
        if x1.ndim == 3:
            cw = np.broadcast_to(cw[:, :, None], cw.shape + x1.shape[2:])
        return np.concatenate([x1, cw], axis=1)


def stacking_gain(t2: float, eps1: float, n1: int) -> tuple[float, float]:
    """(g, g/(g-1)) for stacking E(., eps1^2 I_n1) with a block of trace t2.

    g = 1 + s with s = sqrt(t2 / n1) / eps1 minimizes the trace of the
    product bound (Schweppe 1968; Durieu, Walter and Polyak 2001).  Both
    factors are formed from s directly, so an enormous eps1 (s underflowing
    next to 1) still yields a finite, correct g/(g-1) = 1 + 1/s.
    """
    if eps1 <= 0.0:
        raise InvalidParameterError("eps1 must be positive")
    if t2 <= 0.0 or n1 <= 0:
        raise DegenerateInputError("stacking gain needs positive traces")
    s = float(np.sqrt(t2 / n1) / eps1)
    if s <= 0.0:
        raise DegenerateInputError("stacking ratio underflowed to zero")
    return 1.0 + s, 1.0 + 1.0 / s


def gamma_terms(Kw_k: np.ndarray, eps1_k: float, n1: int
                ) -> tuple[float, float]:
    """(gamma, gamma/(gamma-1)): the :func:`stacking_gain` of the combined
    (x1, w) input bound, gamma = 1 + sqrt(tr Kw / (n1 eps1^2))."""
    return stacking_gain(float(np.trace(np.atleast_2d(Kw_k))), eps1_k, n1)


def build_Ku(gain: tuple[float, float], eps1: float | np.ndarray,
             Q: np.ndarray, n1: int) -> np.ndarray:
    """The stacked block diag(g1 eps1^2 I_n1, g2 Q) of the product bound.

    ``gain`` is a pair (g1, g2), normally (g, g/(g-1)) from
    :func:`stacking_gain`; with Q = K_w this is the input bound K_u.  An
    (m,) array of eps1 with an (m, q, q) stack of Q gives the m blocks.
    """
    g1, g2 = gain
    eps1 = np.asarray(eps1, dtype=float)
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    n = n1 + Q.shape[-1]
    Ku = np.zeros(eps1.shape + (n, n))
    diag = np.arange(n1)
    Ku[..., diag, diag] = g1 * eps1[..., None] ** 2
    Ku[..., n1:, n1:] = g2 * Q
    return symmetrize(Ku)


@lru_cache(maxsize=64)
def _expm_scaled(a: bytes, n: int, t: float) -> np.ndarray:
    """e^{A t} for the n x n matrix A stored in ``a``, read-only."""
    E = expm(np.frombuffer(a).reshape(n, n) * t)
    E.setflags(write=False)
    return E


@lru_cache(maxsize=64)
def _quad_kernels(a4: bytes, n2: int, h: float, substeps: int) -> np.ndarray:
    Eh = _expm_scaled(a4, n2, h)
    kernels = np.empty((substeps + 1, n2, n2))
    P = np.eye(n2)
    for j in range(substeps, -1, -1):
        kernels[j] = P
        P = Eh @ P
    kernels.setflags(write=False)
    return kernels


def quad_kernels(A4: np.ndarray, h: float, substeps: int) -> np.ndarray:
    """Kernels e^{A4 (t_k - tau_j)} = e^{A4 h}^(m-j), j = 0..m, on the
    quadrature grid of one step (m = substeps); kernels[0] = e^{A4 m h}.

    The result is read-only and cached by the value of (A4, h, substeps).
    """
    A4 = np.ascontiguousarray(np.atleast_2d(A4), dtype=float)
    return _quad_kernels(A4.tobytes(), A4.shape[0], float(h), int(substeps))


def alpha_k(M2k: np.ndarray, A4: np.ndarray, P2: np.ndarray,
            dt: float) -> float:
    """Trace-minimizing mixing weight for the predicted shape matrix.

    Minimizes tr(e^{A4 dt} P2 e^{A4^T dt} / a + dt M2k / (1-a)) over
    a in (0,1); the minimizer is sqrt(tp) / (sqrt(tp) + sqrt(dt tm)) with
    tp, tm the two traces.  Degenerate endpoints are clipped into (0,1).
    """
    A4 = np.ascontiguousarray(np.atleast_2d(A4), dtype=float)
    Ed = _expm_scaled(A4.tobytes(), A4.shape[0], float(dt))  # cached by value
    tp = float(np.trace(Ed @ np.atleast_2d(P2) @ Ed.T))
    tm = float(np.trace(np.atleast_2d(M2k)))
    if tp < 0.0 or tm < 0.0:
        raise InvalidParameterError("alpha_k traces must be nonnegative")
    if tp == 0.0 and tm == 0.0:
        warnings.warn("alpha_k: both traces vanish; defaulting to 0.5")
        return 0.5
    a = np.sqrt(tp) / (np.sqrt(tp) + np.sqrt(dt * tm))
    return float(np.clip(a, ALPHA_CLIP, 1.0 - ALPHA_CLIP))


def propagate(st: WeakState, dec, inp: StepInputs, dt: float,
              substeps: int, gain: tuple[float, float]
              ) -> tuple[WeakState, float, np.ndarray]:
    """Time update: center by quadrature, shape by the two-term outer bound.

    Returns (prediction, alpha_used, M2k); the predicted center keeps the
    run axis of ``st.x2hat`` and ``inp.x1hat_samples``.  ``substeps`` is
    the number of Simpson sub-intervals over [t_{k-1}, t_k]; it must be
    even.  ``gain`` is the step's :func:`gamma_terms` pair; M2k integrates
    e^{A4 (t_k - tau)} B2' K_u B2'^T e^{A4^T (t_k - tau)} over one
    :func:`build_Ku` stack of every quadrature node's K_u.
    """
    if dt <= 0.0:
        raise InvalidParameterError("dt must be positive")
    if substeps < 2 or substeps % 2:
        raise InvalidParameterError("substeps must be even and >= 2")
    if inp.eps1_samples.shape[0] != substeps + 1:
        raise InvalidParameterError(
            f"need {substeps + 1} grid samples, got {inp.eps1_samples.shape[0]}")
    A4, B2p = dec.A4, dec.B2p
    h = dt / substeps
    kernels = quad_kernels(A4, h, substeps)
    Em = kernels[0]  # Eh^m = e^{A4 dt}

    drive = np.einsum("jab,bc,jc...->ja...", kernels, B2p, inp.u_samples())
    x2_pred = Em @ st.x2hat + simpson_matrix(drive, h)

    Ku = build_Ku(gain, inp.eps1_samples, inp.Kw_samples, dec.n1)
    KBs = kernels @ B2p
    M2k = symmetrize(simpson_matrix(KBs @ Ku @ KBs.swapaxes(-1, -2), h))

    a = alpha_k(M2k, A4, st.P2hat, dt)
    P2_pred = symmetrize(Em @ st.P2hat @ Em.T / a + dt * M2k / (1.0 - a))
    return WeakState(x2hat=x2_pred, P2hat=P2_pred), a, M2k


def gk_matrix(dec, Ku_tk: np.ndarray) -> np.ndarray:
    """Measurement-consistency shape G_k = D2' K_u(t_k) D2'^T."""
    return symmetrize(dec.D2p @ Ku_tk @ dec.D2p.T)


def update_is_informative(dec, Gk: np.ndarray,
                          rank_tol: float = 1e-10) -> bool:
    """False when the update must be skipped: C2 carries no information or
    G_k is singular at the working tolerance."""
    if dec.n2 == 0 or not np.any(np.abs(dec.C2) > 0.0):
        return False
    scale = spectral_norm(Gk)
    return scale > 0.0 and min_eigval(Gk) > rank_tol * scale


def optimize_beta(P2_pred: np.ndarray, C2: np.ndarray,
                  Gk: np.ndarray) -> float:
    """Weight b minimizing f(b) = tr(((1-b) P^{-1} + b C2^T Gk^{-1} C2)^{-1}).

    The generalized eigendecomposition V^T P^{-1} V = I,
    V^T C2^T Gk^{-1} C2 V = diag(lam) (Golub and Van Loan, Matrix
    Computations, sec. 8.7) gives f(b) = sum_i c_i / (1 - b + b lam_i) with
    c_i = ||v_i||^2, convex in b.  The weight is BETA_LO or BETA_HI where
    f' keeps its sign on that interval, else the one root of f'; a flat f
    gives 0.5.  ``P2_pred`` is SPD as :func:`propagate` returns it; a
    singular ``Gk`` raises :class:`SingularNoiseError`.
    """
    Gk = np.atleast_2d(np.asarray(Gk, dtype=float))
    if not is_spd(Gk, tol=1e-14 * max(1.0, spectral_norm(Gk))):
        raise SingularNoiseError("G_k is singular; skip the measurement update")
    lam, V = sla.eigh(symmetrize(C2.T @ np.linalg.solve(Gk, C2)),
                      np.linalg.inv(P2_pred))
    c = np.sum(V ** 2, axis=0)

    def df(b: float) -> float:
        return float(np.sum(c * (1.0 - lam) / (1.0 - b + b * lam) ** 2))

    if df(BETA_LO) >= 0.0:
        beta = BETA_LO
    elif df(BETA_HI) <= 0.0:
        beta = BETA_HI
    else:
        beta = brentq(df, BETA_LO, BETA_HI)
    # f is convex: its variation on the interval is top - f(beta)
    bs = np.array([[BETA_LO], [BETA_HI], [beta]])
    f_lo, f_hi, f_beta = np.sum(c / (1.0 - bs + bs * lam), axis=1)
    top = max(f_lo, f_hi)
    if top - f_beta <= BETA_FLAT_TOL * max(top, 1.0):
        return 0.5
    return float(beta)


def measurement_update(st_pred: WeakState, dec, inp: StepInputs,
                       beta: float, Gk: np.ndarray) -> WeakState:
    """Data update with gain O_k; fuses the prediction with the measurement
    set E(., Gk) at mixing weight beta.  One gain serves every run."""
    if not 0.0 < beta < 1.0:
        raise InvalidParameterError("beta must lie in (0,1)")
    C2, D2p = dec.C2, dec.D2p
    P_pred = st_pred.P2hat
    S = symmetrize(C2 @ P_pred @ C2.T / (1.0 - beta) + Gk / beta)
    if min_eigval(S) <= 0.0:
        raise SingularInnovationError("innovation matrix is not invertible")
    Ok = P_pred @ C2.T @ np.linalg.inv(S) / (1.0 - beta)
    innovation = inp.y_k - C2 @ st_pred.x2hat - D2p @ inp.u_samples()[-1]
    x2hat = st_pred.x2hat + Ok @ innovation
    P2hat = symmetrize((np.eye(dec.n2) - Ok @ C2) @ P_pred / (1.0 - beta))
    return WeakState(x2hat=x2hat, P2hat=P2hat)


def woodbury_shape(P2_pred: np.ndarray, C2: np.ndarray, Gk: np.ndarray,
                   beta: float) -> np.ndarray:
    """Equivalent inverse-combination form of the updated shape matrix."""
    X = symmetrize((1.0 - beta) * np.linalg.inv(P2_pred)
                   + beta * C2.T @ np.linalg.solve(Gk, C2))
    return symmetrize(np.linalg.inv(X))
