"""Unknown-input observer for the strongly observable block and its
guaranteed error envelope eps1(t).

All routines take the subsystem blocks (A1, C1, B1p, D1p) directly so the
module stays independent of how the decomposition was produced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import lfilter, place_poles

from .errors import (InvalidDesignError, InvalidParameterError,
                     NoStableObserverError)
from .numerics import (expm, norm_envelope_grid, power_norms, simpson,
                       spectral_norm, zoh)

#: residual tolerance on the gain constraint F G_l = [B1' 0 ... 0]
GAIN_RESIDUAL_TOL = 1e-8


def build_markov_matrices(A1: np.ndarray, C1: np.ndarray, B1p: np.ndarray,
                          D1p: np.ndarray, l: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacked observability rows O_l and input-Markov Toeplitz block G_l.

    O_l rows are C1 A1^j for j = 0..l; G_l is block lower triangular with
    D1p on the diagonal and C1 A1^{j-1} B1p on the j-th sub-diagonal.
    """
    if l < 0:
        raise InvalidParameterError("derivative order l must be >= 0")
    A1 = np.atleast_2d(np.asarray(A1, dtype=float))
    C1 = np.atleast_2d(np.asarray(C1, dtype=float))
    B1p = np.atleast_2d(np.asarray(B1p, dtype=float))
    D1p = np.atleast_2d(np.asarray(D1p, dtype=float))
    ny, m = D1p.shape
    powers = [np.eye(A1.shape[0])]
    for _ in range(l):
        powers.append(powers[-1] @ A1)
    Ol = np.vstack([C1 @ powers[j] for j in range(l + 1)])
    Gl = np.zeros(((l + 1) * ny, (l + 1) * m))
    for i in range(l + 1):
        Gl[i * ny:(i + 1) * ny, i * m:(i + 1) * m] = D1p
        for j in range(i):
            Gl[i * ny:(i + 1) * ny, j * m:(j + 1) * m] = \
                C1 @ powers[i - 1 - j] @ B1p
    return Ol, Gl


def gain_target(B1p: np.ndarray, l: int) -> np.ndarray:
    """Right-hand side [B1' 0 ... 0] of the gain constraint."""
    B1p = np.atleast_2d(np.asarray(B1p, dtype=float))
    n1, m = B1p.shape
    M = np.zeros((n1, (l + 1) * m))
    M[:, :m] = B1p
    return M


def residual_pair(A1, C1, B1p, D1p, l):
    """(A_res, C_res) on which the remaining gain freedom acts, with the
    row-space residual ||M Gl^+ Gl - M|| of the gain constraint.

    With F = M Gl^+ + Y (I - Gl Gl^+), the observer matrix becomes
    E = A_res - Y C_res; Y is then an output-injection gain.
    """
    Ol, Gl = build_markov_matrices(A1, C1, B1p, D1p, l)
    M = gain_target(B1p, l)
    Gp = np.linalg.pinv(Gl)
    res = float(np.linalg.norm(M @ Gp @ Gl - M))
    A_res = np.atleast_2d(np.asarray(A1, dtype=float)) - M @ Gp @ Ol
    C_res = (np.eye(Gl.shape[0]) - Gl @ Gp) @ Ol
    return Ol, Gl, M, Gp, A_res, C_res, res


def is_detectable(A: np.ndarray, C: np.ndarray, tol: float = 1e-8) -> bool:
    """PBH test: every eigenvalue with Re >= 0 must be observable."""
    n = A.shape[0]
    if n == 0:
        return True
    for lam in np.linalg.eigvals(A):
        if lam.real >= -tol:
            pencil = np.vstack([lam * np.eye(n) - A, C.astype(complex)])
            s = np.linalg.svd(pencil, compute_uv=False)
            if np.linalg.matrix_rank(pencil, tol=1e-10 * max(1.0, s[0])) < n:
                return False
    return True


@dataclass(frozen=True)
class UioDesign:
    """Synthesized observer data for the strongly observable block."""

    l: int
    Ol: np.ndarray
    Gl: np.ndarray
    F: np.ndarray
    E: np.ndarray

    def __post_init__(self):
        if self.E.size and np.max(np.linalg.eigvals(self.E).real) >= 0.0:
            raise InvalidDesignError("observer matrix E must be Hurwitz")


def solve_uio_gain(A1, C1, B1p, D1p, l, poles, pair=None) -> UioDesign:
    """Solve F G_l = [B1' 0 ... 0] and shape E = A1 - F O_l.

    The general solution's free term Y is chosen by eigenvalue assignment on
    the residual pair; if exact assignment fails, a Riccati-based stabilizing
    output injection is used instead.  Raises if the residual pair is
    undetectable or the constraint is unsolvable.  ``pair`` is
    :func:`residual_pair` at order l where the caller holds it already (the
    derivative-order report does); by default it is formed here.
    """
    if pair is None:
        pair = residual_pair(A1, C1, B1p, D1p, l)
    Ol, Gl, M, Gp, A_res, C_res, res = pair
    n1 = A_res.shape[0]
    if res > GAIN_RESIDUAL_TOL * (1.0 + spectral_norm(np.atleast_2d(B1p))):
        raise NoStableObserverError(
            f"gain equation unsolvable at order l={l} (residual {res:.3e})")
    if n1 == 0:
        return UioDesign(l=l, Ol=Ol, Gl=Gl, F=np.zeros((0, Ol.shape[0])),
                         E=np.zeros((0, 0)))
    rank_C = np.linalg.matrix_rank(C_res, tol=1e-10)
    if rank_C == 0:
        # no freedom left: E is fixed by the constraint
        E = A_res
        if np.max(np.linalg.eigvals(E).real) >= 0.0:
            raise NoStableObserverError("E fixed by the constraint and unstable")
        Y = np.zeros((n1, Ol.shape[0]))
    else:
        poles = np.sort_complex(np.asarray(poles, dtype=complex))
        if poles.shape[0] != n1:
            raise InvalidParameterError(f"need {n1} poles, got {poles.shape[0]}")
        if np.max(poles.real) >= 0.0:
            raise InvalidParameterError("requested poles must have Re < 0")
        try:
            placed = place_poles(A_res.T, C_res.T, poles)
            Y = placed.gain_matrix.T
        except ValueError:
            if not is_detectable(A_res, C_res):
                raise NoStableObserverError("residual pair is undetectable")
            P = sla.solve_continuous_are(A_res.T, C_res.T,
                                         np.eye(n1), np.eye(C_res.shape[0]))
            Y = P @ C_res.T
    F = M @ Gp + Y @ (np.eye(Gl.shape[0]) - Gl @ Gp)
    E = np.atleast_2d(np.asarray(A1, dtype=float)) - F @ Ol
    if np.max(np.linalg.eigvals(E).real) >= 0.0:
        raise NoStableObserverError("synthesized E is not Hurwitz")
    res = float(np.linalg.norm(F @ Gl - M))
    if res > GAIN_RESIDUAL_TOL * (1.0 + spectral_norm(np.atleast_2d(B1p))):
        raise NoStableObserverError(f"constraint drifted in synthesis ({res:.3e})")
    return UioDesign(l=l, Ol=Ol, Gl=Gl, F=F, E=E)


def step_uio(des: UioDesign, x1hat: np.ndarray, zhat: np.ndarray,
             h: float) -> np.ndarray:
    """Advance x1hat over step h with the derivative stack zhat held constant.

    The estimator folds the same step into the lifted center recurrence
    (``pipeline.CenterLift``); this one-step form is its reference.
    """
    if h <= 0.0:
        raise InvalidParameterError("step size must be positive")
    Ed, Fd = zoh(des.E, des.F, h)
    return Ed @ np.asarray(x1hat, dtype=float) + Fd @ np.asarray(zhat, dtype=float)


@dataclass(frozen=True)
class ErrorBoundParams:
    """Constants entering the guaranteed envelope eps1(t).

    delta must satisfy delta >= sup||y^(l)|| * K * eps / a; init_norm is
    ||P1 K0 P1^T||^{1/2}, the worst-case transformed initial error.
    """

    K: float
    a: float
    eps: float
    delta: float
    zbar0: float
    l: int
    F_norm: float
    init_norm: float
    n_y: int

    def __post_init__(self):
        vals = (self.K, self.a, self.eps, self.delta, self.zbar0,
                self.F_norm, self.init_norm)
        if any(v < 0.0 for v in vals):
            raise InvalidParameterError("error-bound constants must be >= 0")


def derivative_error_envelope(p: ErrorBoundParams, order: int,
                              z0_norm: float, t: float) -> float:
    """Envelope on the k-th derivative-estimate error of one HGO channel:

        eps^{l-k} delta + (K sqrt(l+1) / eps^k * ||z~(0)|| -
        eps^{l-k} delta) e^{-a t / eps}.
    """
    if not 0 <= order <= p.l:
        raise InvalidParameterError("order must lie in [0, l]")
    steady = p.eps ** (p.l - order) * p.delta
    transient = (p.K * np.sqrt(p.l + 1.0) / p.eps ** order) * z0_norm - steady
    return float(steady + transient * np.exp(-p.a * t / p.eps))


#: largest cell of the envelope convolutions
EPS1_INT_STEP = 0.005


def _cell_weights(r: float, H: float) -> np.ndarray:
    """Weights w with int_0^H q(u) e^{-r(H-u)} du = w @ (q(0), q(H/2), q(H))
    for every quadratic q; w at r = 0 is Simpson's rule H/6 (1, 4, 1).

    The moments m_k = int_0^1 e^{-rH(1-s)} s^k/k! ds, k = 0..2, are the
    first row of one 4x4 exponential (Van Loan, IEEE TAC 23(3), 1978); the
    weights map them onto the node values of q.
    """
    T = np.diag(np.ones(3), 1)
    T[0, 0] = -r * H
    _, m0, m1, m2 = expm(T)[0]
    return H * np.array([m0 - 3.0 * m1 + 4.0 * m2, 4.0 * m1 - 8.0 * m2,
                         4.0 * m2 - m1])


class Epsilon1Evaluator:
    """Evaluates the envelope eps1(t) from cached ||e^{Es}|| samples.

    The two convolution integrals in Psi(t),

        I1(t) = int_0^t ||e^{Es}|| ds,
        I2(t) = int_0^t ||e^{Es}|| e^{-a(t-s)/eps} ds,

    are integrated over cells of size h_int = h / m that refine the output
    grid of step h = ``grid_step``: m is the least whole number with h_int
    <= min(EPS1_INT_STEP, 0.1 / |lambda|max(E)).  On each cell ||e^{Es}|| is
    the quadratic through its samples at the cell's ends and midpoint, and
    one weight vector per kernel (:func:`_cell_weights`) integrates it
    exactly: I1 sums the cells, I2 follows the recursion I2 <- e^{-r h_int}
    I2 + cell increment with r = a/eps.  Output node i is cell boundary m i.

    Values at a shared time therefore agree exactly between output grids
    whose cells coincide (the same h_int, as for steps 0.1, 0.02 and 0.005
    at the default cell size) and to the accuracy of the quadratic model
    elsewhere.

    The half-cell samples ``gh`` come from one :func:`power_norms` walk of
    e^{E h_int / 2}.  A design builds one evaluator and reads both its grid
    and :meth:`uniform_bounds` from it.
    """

    def __init__(self, params: ErrorBoundParams, E: np.ndarray,
                 grid_step: float, horizon: float):
        self.E = np.atleast_2d(np.asarray(E, dtype=float))
        lam = np.linalg.eigvals(self.E)
        if np.max(lam.real) >= 0.0:
            raise InvalidDesignError("eps1 requires a Hurwitz E")
        self.params = params
        self.h = float(grid_step)
        if self.h <= 0.0:
            raise InvalidParameterError("grid_step must be positive")
        n_steps = int(np.ceil(horizon / self.h - 1e-9)) + 1
        self.ts = self.h * np.arange(n_steps + 1)
        # cells resolve E's dynamics and refine the output grid
        cell = min(EPS1_INT_STEP, 0.1 / float(np.max(np.abs(lam))))
        m = int(np.ceil(self.h / cell - 1e-9))
        self.h_int = self.h / m
        self.gh = power_norms(expm(0.5 * self.h_int * self.E),
                              2 * m * n_steps + 1)  # at s = j h_int / 2
        cells = sliding_window_view(self.gh, 3)[::2]
        p = params
        r = p.a / p.eps
        i1 = np.cumsum(cells @ _cell_weights(0.0, self.h_int))
        i2 = lfilter([1.0], [1.0, -np.exp(-r * self.h_int)],
                     cells @ _cell_weights(r, self.h_int))
        coef = (p.K * np.sqrt(p.l + 1.0) / p.eps ** p.l) * p.zbar0 \
            - p.eps ** p.l * p.delta
        scale = p.F_norm * np.sqrt(p.n_y * (p.l + 1.0))
        psi = np.concatenate([[0.0], p.delta * i1[m - 1::m]
                              + coef * i2[m - 1::m]])
        self._vals = self.gh[::2 * m] * p.init_norm + scale * psi

    def _index(self, t: float) -> int:
        m = int(round(t / self.h))
        if abs(t - m * self.h) > 1e-9 * max(1.0, t) or m < 0 or m >= self.ts.size:
            raise InvalidParameterError(
                f"t={t} is not on the cached quadrature grid (step {self.h})")
        return m

    def at(self, t: float) -> float:
        return float(self._vals[self._index(t)])

    def grid(self, t_end: float) -> tuple[np.ndarray, np.ndarray]:
        """eps1 at every output grid time up to t_end."""
        m_end = self._index(t_end)
        return self.ts[:m_end + 1].copy(), self._vals[:m_end + 1].copy()

    def uniform_bounds(self, eps1_floor: float = 1e-6) -> tuple[float, float]:
        """(inf, sup) of eps1 over the output grid, sup merged with the
        t->inf limit.

        The asymptotic value is delta * ||F|| sqrt(n_y(l+1)) * int_0^inf
        ||e^{Es}|| ds; the transient integral vanishes because its kernel
        concentrates where ||e^{Et}|| has died out.
        """
        p = self.params
        vals = self._vals
        _, norms_tail = norm_envelope_grid(self.E, self.h)
        tail_integral = simpson(norms_tail, self.h)
        limit = p.delta * p.F_norm * np.sqrt(p.n_y * (p.l + 1.0)) \
            * tail_integral
        hi = max(float(np.max(vals)), limit)
        lo = max(float(np.min(vals)), eps1_floor)
        return lo, hi


def epsilon1_uniform_bounds(p: ErrorBoundParams, E: np.ndarray,
                            horizon: float, grid_step: float = 0.005,
                            eps1_floor: float = 1e-6) -> tuple[float, float]:
    """(inf, sup) of eps1 over [0, horizon]; see
    :meth:`Epsilon1Evaluator.uniform_bounds`."""
    return Epsilon1Evaluator(p, E, grid_step, horizon).uniform_bounds(
        eps1_floor)
