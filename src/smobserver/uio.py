"""Unknown-input observer for the strongly observable block and its
guaranteed error envelope eps1(t).

All routines take the subsystem blocks (A1, C1, B1p, D1p) directly so the
module stays independent of how the decomposition was produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.signal import place_poles

from .errors import (InvalidDesignError, InvalidParameterError,
                     NoStableObserverError)
from .numerics import (norm_envelope_grid, power_norms, simpson,
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
    #: ZOH discretizations (Ed, Fd) of this design, keyed by step size
    zoh_cache: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

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
    pair = des.zoh_cache.get(h)
    if pair is None:
        pair = des.zoh_cache[h] = zoh(des.E, des.F, h)
    Ed, Fd = pair
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


#: default internal integration step for the envelope convolutions
EPS1_INT_STEP = 0.005


class Epsilon1Evaluator:
    """Evaluates the envelope eps1(t) from cached ||e^{Es}|| samples.

    The two convolution integrals in Psi(t),

        I1(t) = int_0^t ||e^{Es}|| ds,
        I2(t) = int_0^t ||e^{Es}|| e^{-a(t-s)/eps} ds,

    are computed on a fixed internal grid whose spacing depends only on E,
    never on the requested output grid: ||e^{Es}|| is modeled as piecewise
    quadratic through half-step samples and integrated against the
    exponential kernel in closed form.  As a result the values at a given
    time agree across different output spacings to rounding accuracy,
    which keeps refinement studies of the estimator grids meaningful.
    ``grid_step`` only sets the output nodes in ``ts``.

    The half-step samples come from one :func:`power_norms` walk of
    e^{E h_int / 2}.  On first use eps1 is evaluated at every output node at once;
    only the scalar I2 recursion steps node by node.  A design builds one
    evaluator and reads both its grid and :meth:`uniform_bounds` from it.
    """

    def __init__(self, params: ErrorBoundParams, E: np.ndarray,
                 grid_step: float, horizon: float):
        if np.max(np.linalg.eigvals(np.atleast_2d(E)).real) >= 0.0:
            raise InvalidDesignError("eps1 requires a Hurwitz E")
        self.params = params
        self.E = np.atleast_2d(np.asarray(E, dtype=float))
        self.h = float(grid_step)
        if self.h <= 0.0:
            raise InvalidParameterError("grid_step must be positive")
        n_steps = int(np.ceil(horizon / self.h - 1e-9)) + 1
        self.ts = self.h * np.arange(n_steps + 1)
        # internal cell size: resolves E's dynamics, independent of ts
        lam = np.linalg.eigvals(self.E)
        lam_max = float(np.max(np.abs(lam))) if lam.size else 1.0
        self.h_int = min(EPS1_INT_STEP, 0.1 / max(lam_max, 1e-12))
        h2 = 0.5 * self.h_int
        n_cells = int(np.ceil(self.ts[-1] / self.h_int - 1e-9)) + 1
        Eh2 = zoh(self.E, np.zeros((self.E.shape[0], 0)), h2)[0]
        gh = power_norms(Eh2, 2 * n_cells + 1)
        self.gh = gh              # ||e^{E s}|| at s = j * h_int / 2
        self.n_cells = n_cells
        # cumulative integral of the quadratic model over full cells
        cell = (h2 / 3.0) * (gh[0:-2:2] + 4.0 * gh[1:-1:2] + gh[2::2])
        self.cum1 = np.concatenate([[0.0], np.cumsum(cell)])
        self._vals: np.ndarray | None = None   # cached eps1 at output nodes

    # -- internal-grid helpers, elementwise over arrays of cells/times ------
    #
    # Squares and cubes use np.float_power, which is libm pow like Python's
    # float ``**``; numpy's ``**`` on arrays rounds them differently.  With
    # libm pow the arrays equal a scalar node-by-node evaluation bit for bit.

    def _cell_coeffs(self, j: np.ndarray):
        """Quadratic model of g on cells j in the local coordinate
        w = (u - midpoint)/h2, w in [-1, 1]."""
        g0, g1, g2 = self.gh[2 * j], self.gh[2 * j + 1], self.gh[2 * j + 2]
        return g1, 0.5 * (g2 - g0), 0.5 * (g2 - 2.0 * g1 + g0)

    def _g_at(self, t: np.ndarray) -> np.ndarray:
        """||e^{Et}|| from the cells' quadratic models."""
        j = np.minimum((t / self.h_int).astype(np.intp), self.n_cells - 1)
        A, B, C = self._cell_coeffs(j)
        w = (t - (j + 0.5) * self.h_int) / (0.5 * self.h_int)
        return A + B * w + C * w * w

    def _plain_piece(self, j: np.ndarray, a: np.ndarray,
                     b: np.ndarray) -> np.ndarray:
        """int_a^b g(u) du for [a, b] inside cell j (quadratic model)."""
        A, B, C = self._cell_coeffs(j)
        h2 = 0.5 * self.h_int
        mid = (j + 0.5) * self.h_int
        wa, wb = (a - mid) / h2, (b - mid) / h2
        pw = np.float_power
        return h2 * (A * (wb - wa) + B * (pw(wb, 2) - pw(wa, 2)) / 2.0
                     + C * (pw(wb, 3) - pw(wa, 3)) / 3.0)

    def _kernel_piece(self, j: np.ndarray, a: np.ndarray, b: np.ndarray,
                      T: np.ndarray, r: float) -> np.ndarray:
        """int_a^b g(u) e^{r (u - T)} du for [a, b] inside cell j, u <= T.

        Uses exact moments of the quadratic model against the exponential;
        falls back to Simpson when the kernel barely varies on the piece.
        """
        A, B, C = self._cell_coeffs(j)
        h2 = 0.5 * self.h_int
        mid = (j + 0.5) * self.h_int
        pw = np.float_power
        # q as a polynomial in v = u - T: q = c0 + c1 v + c2 v^2
        v1 = mid - T
        c2 = C / h2 ** 2
        c1 = B / h2 - 2.0 * C * v1 / h2 ** 2
        c0 = A - B * v1 / h2 + C * pw(v1, 2) / h2 ** 2
        va, vb = a - T, b - T
        d = r * (vb - va)
        out = np.empty(d.shape)
        # kernel almost constant on the piece: 5-node Simpson is exact to
        # far below working precision here
        flat = d < 1e-3
        fa, fb = va[flat, None], vb[flat, None]
        vs = np.arange(5.0) * ((fb - fa) / 4.0) + fa
        vs[:, -1:] = fb
        q = c0[flat, None] + c1[flat, None] * vs + c2[flat, None] * vs ** 2
        f = q * np.exp(r * vs)
        out[flat] = (fb - fa)[:, 0] / 12.0 * (
            f[:, 0] + 4.0 * f[:, 1] + 2.0 * f[:, 2] + 4.0 * f[:, 3] + f[:, 4])
        steep = ~flat
        va, vb = va[steep], vb[steep]
        e_a, e_b = np.exp(r * va), np.exp(r * vb)
        m0 = e_a * np.expm1(d[steep]) / r
        m1 = (vb * e_b - va * e_a - m0) / r
        m2 = (pw(vb, 2) * e_b - pw(va, 2) * e_a - 2.0 * m1) / r
        out[steep] = c0[steep] * m0 + c1[steep] * m1 + c2[steep] * m2
        return out

    def _i1(self, t: np.ndarray) -> np.ndarray:
        """int_0^t g(u) du."""
        j = np.minimum((t / self.h_int + 1e-12).astype(np.intp), self.n_cells)
        out = self.cum1[j]
        left = j * self.h_int
        part = (t > left + 1e-15) & (j < self.n_cells)
        out[part] += self._plain_piece(j[part], left[part], t[part])
        return out

    def _i2_increments(self, r: float) -> np.ndarray:
        """int_{t0}^{t1} g(u) e^{r(u - t1)} du for every pair of adjacent
        output nodes, summed piece by piece over the internal cells."""
        t0, t1 = self.ts[:-1], self.ts[1:]
        out = np.zeros(t0.shape)
        j = (t0 / self.h_int + 1e-12).astype(np.intp)
        u = t0
        live = (u < t1 - 1e-15) & (j < self.n_cells)
        while live.any():
            right = np.minimum((j + 1) * self.h_int, t1)
            hit = live & (right > u + 1e-15)
            out[hit] += self._kernel_piece(j[hit], u[hit], right[hit],
                                           t1[hit], r)
            u, j = right, j + 1
            live &= (u < t1 - 1e-15) & (j < self.n_cells)
        return out

    def _compute(self) -> np.ndarray:
        """eps1 at every output node: ||e^{Et}|| init_norm + scale Psi(t),
        with I2 from the exact kernel recursion
        I2(t_{m+1}) = e^{-r h} I2(t_m) + local increment."""
        if self._vals is not None:
            return self._vals
        p = self.params
        r = p.a / p.eps
        coef = (p.K * np.sqrt(p.l + 1.0) / p.eps ** p.l) * p.zbar0 \
            - p.eps ** p.l * p.delta
        scale = p.F_norm * np.sqrt(p.n_y * (p.l + 1.0))
        decay = np.exp(-r * np.diff(self.ts)).tolist()
        inc = self._i2_increments(r).tolist()
        i2 = np.empty(self.ts.size)
        i2[0] = acc = 0.0
        for m in range(len(inc)):
            acc = decay[m] * acc + inc[m]
            i2[m + 1] = acc
        psi = p.delta * self._i1(self.ts) + coef * i2
        self._vals = self._g_at(self.ts) * p.init_norm + scale * psi
        return self._vals

    def _index(self, t: float) -> int:
        m = int(round(t / self.h))
        if abs(t - m * self.h) > 1e-9 * max(1.0, t) or m < 0 or m >= self.ts.size:
            raise InvalidParameterError(
                f"t={t} is not on the cached quadrature grid (step {self.h})")
        return m

    def at(self, t: float) -> float:
        return float(self._compute()[self._index(t)])

    def grid(self, t_end: float) -> tuple[np.ndarray, np.ndarray]:
        """eps1 at every output grid time up to t_end."""
        m_end = self._index(t_end)
        return self.ts[:m_end + 1].copy(), self._compute()[:m_end + 1].copy()

    def uniform_bounds(self, eps1_floor: float = 1e-6) -> tuple[float, float]:
        """(inf, sup) of eps1 over the output grid, sup merged with the
        t->inf limit.

        The asymptotic value is delta * ||F|| sqrt(n_y(l+1)) * int_0^inf
        ||e^{Es}|| ds; the transient integral vanishes because its kernel
        concentrates where ||e^{Et}|| has died out.
        """
        p = self.params
        vals = self._compute()
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
