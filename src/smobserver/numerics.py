"""Shared numerical kernels: matrix exponentials, rank decisions, quadrature.

Every matrix exponential in the library goes through :func:`expm` so that
discretizations and error envelopes are mutually consistent; every fine
step of a continuous system is :func:`quadratic_hold`.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

EPS = float(np.finfo(float).eps)

#: inflation of a sampled supremum of ||e^{At}|| e^{-shift t}, so that an
#: envelope fitted on a grid stays valid between the grid samples
GRID_SUP_SAFETY = 1.05


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring with diagonal Pade)."""
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return np.zeros_like(A)
    return sla.expm(A)


def zoh(A: np.ndarray, B: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact zero-order-hold discretization of ``dx = Ax + Bu`` over step h.

    Returns (Ad, Bd) with Ad = e^{Ah} and Bd = int_0^h e^{As} ds B, computed
    from one exponential of the augmented block matrix.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n, m = A.shape[0], B.shape[1]
    if n == 0:
        return A.copy(), B.copy()
    M = np.zeros((n + m, n + m))
    M[:n, :n] = A * h
    M[:n, n:] = B * h
    E = expm(M)
    return E[:n, :n], E[:n, n:]


def quadratic_hold(A: np.ndarray, B: np.ndarray, h: float
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact step x(h) = Ad x(0) + G0 w(0) + Gh w(h/2) + G1 w(h) of
    ``dx = Ax + Bw`` for the w that is quadratic through those samples.

    One exponential of [[Ah, B, 0, 0], [0, 0, I, 0], [0, 0, 0, I], 0] holds
    Ad and the moments m_k = int_0^1 e^{Ah(1-s)} B s^k/k! ds in its top row
    (Van Loan, IEEE TAC 23(3), 1978).  Entries that no path of its pattern
    reaches are set to exact zero: on a stiff cascade the exponential
    otherwise leaks rounding into states that no input drives.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n, m = A.shape[0], B.shape[1]
    N = np.zeros((n + 3 * m, n + 3 * m))
    N[:n, :n], N[:n, n:n + m] = A * h, B
    N[n:n + 2 * m, n + m:] = np.eye(2 * m)
    reach = (N != 0.0) | np.eye(len(N), dtype=bool)
    for _ in range(len(N).bit_length()):    # paths of every length
        reach = (reach.astype(int) @ reach.astype(int)) > 0
    X = np.where(reach, expm(N), 0.0)[:n]
    m0, m1, m2 = X[:, n:n + m], X[:, n + m:n + 2 * m], X[:, n + 2 * m:]
    return (X[:, :n], h * (m0 - 3.0 * m1 + 4.0 * m2), h * (4.0 * m1 - 8.0 * m2),
            h * (4.0 * m2 - m1))


def spectral_norm(A: np.ndarray) -> float:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.size == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))


def symmetrize(K: np.ndarray) -> np.ndarray:
    """(K + K^T) / 2 of one matrix, or of each matrix in a stack."""
    return 0.5 * (K + K.swapaxes(-1, -2))


def default_rank_tol(M: np.ndarray, smax: float) -> float:
    """Conventional numerical-rank cutoff: max(m,n) * eps * sigma_max."""
    return max(M.shape) * EPS * smax


def null_basis(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space (columns)."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[1] == 0:
        return np.zeros((0, 0))
    if M.shape[0] == 0 or not np.any(M):
        return np.eye(M.shape[1])
    _, s, vt = np.linalg.svd(M)
    r = int(np.sum(s > default_rank_tol(M, s[0])))
    return vt[r:].T


def range_basis(M: np.ndarray, scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the column space.

    ``scale`` sets the magnitude against which rank is judged; pass 1.0 when
    M holds sub-rows of unit vectors, whose honest columns may be small while
    spurious ones sit at machine epsilon.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[1] == 0 or M.size == 0:
        return np.zeros((M.shape[0], 0))
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    ref = max(scale, s[0] if s.size else 0.0)
    r = int(np.sum(s > default_rank_tol(M, ref)))
    return u[:, :r]


def canonical_basis(V: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of span(V).

    Built from the subspace projector via pivoted QR, then sign-fixed and
    ordered by each column's dominant coordinate.  Coordinate-aligned
    subspaces come out as sorted signed unit vectors, which keeps the
    decomposition of already-triangular systems literal.
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    n, r = V.shape
    if r == 0:
        return np.zeros((n, 0))
    P = V @ V.T
    Q, _, _ = sla.qr(P, pivoting=True)
    B = Q[:, :r].copy()
    lead = np.empty(r, dtype=int)
    for j in range(r):
        i = int(np.argmax(np.abs(B[:, j])))
        if B[i, j] < 0:
            B[:, j] = -B[:, j]
        lead[j] = i
    B = B[:, np.argsort(lead, kind="stable")]
    # snap exact-coordinate bases free of roundoff dust
    B[np.abs(B) < 1e2 * EPS] = 0.0
    nrm = np.linalg.norm(B, axis=0)
    return B / nrm


def simpson_weights(m: int, dx: float) -> np.ndarray:
    """The m + 1 weights dx (1, 4, 2, 4, ..., 2, 4, 1) / 3 of the composite
    Simpson rule on m intervals of width dx, m even."""
    w = np.where(np.arange(m + 1) % 2, 4.0, 2.0)
    w[0] = w[-1] = 1.0
    return dx / 3.0 * w


def unit_ball_volume(n: int) -> float:
    from math import gamma, pi
    return pi ** (n / 2.0) / gamma(n / 2.0 + 1.0)


#: matrix powers whose norms :func:`power_norms` takes per batched
#: ``eigvalsh`` call; a fixed chunk keeps peak memory independent of the
#: walk's length (4096 powers of a 5x5 matrix are 0.8 MB)
POWER_NORM_CHUNK = 4096

#: length (a power of two) of the power table of :func:`power_norms`: power
#: j is the table entry j mod POWER_TABLE times the (j // POWER_TABLE)-th
#: block power
POWER_TABLE = 256


def power_norms(Eh: np.ndarray, count: int, start: int = 0) -> np.ndarray:
    """Spectral norms ||Eh^j|| for j = start..start+count-1.

    The powers come from a table T[i] = Eh^i, i < POWER_TABLE, built by
    doubling, and the block powers Q_b = (Eh^POWER_TABLE)^b, built one
    product per block: Eh^j = T[j mod POWER_TABLE] @ Q_{j // POWER_TABLE}.
    So the bits of power j depend on j alone, and a walk extended by a
    later ``start`` equals one longer walk.  Each norm is s sqrt(lambda_max
    (X^T X)) with s = max |P_ij| and X = P / s, from one batched
    ``eigvalsh`` per chunk of :data:`POWER_NORM_CHUNK` powers; the scaling
    keeps the Gram matrix finite for any finite P.  A power that overflows
    (a non-finite entry) has norm inf.
    """
    Eh = np.atleast_2d(np.asarray(Eh, dtype=float))
    n, B = Eh.shape[0], POWER_TABLE
    T = np.empty((B, n, n))
    T[0], T[1] = np.eye(n), Eh
    with np.errstate(over="ignore", invalid="ignore"):
        k = 2
        while k < B:
            np.matmul(T[k - 1] @ Eh, T[:k], out=T[k:2 * k])
            k *= 2
        stop = start + count
        Q = np.empty((max(stop - 1, 0) // B + 1, n, n))
        Q[0], EB = np.eye(n), T[B - 1] @ Eh
        for b in range(1, Q.shape[0]):
            np.matmul(EB, Q[b - 1], out=Q[b])
        norms = np.empty(count)
        stack = np.empty((min(count, POWER_NORM_CHUNK), n, n))
        for lo in range(start, stop, POWER_NORM_CHUNK):
            hi = min(lo + POWER_NORM_CHUNK, stop)
            for b in range(lo // B, (hi - 1) // B + 1):
                i0, i1 = max(lo, b * B), min(hi, (b + 1) * B)
                np.matmul(T[i0 - b * B:i1 - b * B], Q[b],
                          out=stack[i0 - lo:i1 - lo])
            X = stack[:hi - lo]
            s = np.max(np.abs(X), axis=(1, 2))
            finite = np.isfinite(s)
            X /= np.where(finite & (s > 0.0), s, 1.0)[:, None, None]
            X[~finite] = 0.0
            lam = np.linalg.eigvalsh(X.swapaxes(1, 2) @ X)[:, -1]
            norms[lo - start:hi - start] = np.where(
                finite, s * np.sqrt(lam), np.inf)
    return norms


#: powers that :func:`compensated_sup` walks before it first tests its
#: certified tail; a supremum at or near t = 0 needs no more
SUP_FIRST_WALK = 256

#: inflation of the Lyapunov amplitude of :func:`lyapunov_tail` against
#: rounding in X, in its eigenvalues and in the sampled norms
LYAPUNOV_TAIL_SAFETY = 1.0 + 1e-6


def norm_envelope_grid(A: np.ndarray, h: float, t_end: float) -> np.ndarray:
    """Samples ||e^{A j h}|| at the ceil(t_end/h + 1/2) points of
    ``np.arange(0, t_end + h/2, h)``, so a t_end of n h gives exactly n + 1.

    One :func:`power_norms` call, so a shorter t_end's samples are the bit
    for bit prefix of a longer one's.  It is the eps1 envelope's one walk,
    which ends at the output grid's horizon; the envelope bounds the t ->
    inf tail from these samples in closed form.  Suprema go through
    :func:`compensated_sup`, whose stop is certified.
    """
    Eh = expm(np.atleast_2d(np.asarray(A, dtype=float)) * h)
    return power_norms(Eh, int(np.ceil((t_end + 0.5 * h) / h)))


def lyapunov_tail(A: np.ndarray, shift: float) -> tuple[float, float]:
    """(amp, c) with ||e^{At}|| e^{-shift t} <= amp e^{-c t} for all t >= 0.

    c = (shift - max Re eig A) / 2.  X solves B^T X + X B = -I for the
    Hurwitz B = A - (shift - c) I, so ||e^{Bt}||_X <= 1 and ||e^{Bt}|| <=
    sqrt(kappa(X)) = amp / LYAPUNOV_TAIL_SAFETY.  This holds for the
    computed X while the equation's residual is below 1/2 in norm.  amp is
    inf where nothing is certified (c <= 0, or X fails that check).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    c = 0.5 * (shift - float(np.max(np.linalg.eigvals(A).real)))
    if not c > 0.0:
        return np.inf, 0.0
    B = A - (shift - c) * np.eye(n)
    X = symmetrize(sla.solve_continuous_lyapunov(B.T, -np.eye(n)))
    lam = np.linalg.eigvalsh(X)
    residual = spectral_norm(B.T @ X + X @ B + np.eye(n))
    if not (lam[0] > 0.0 and residual < 0.5):
        return np.inf, c
    return LYAPUNOV_TAIL_SAFETY * float(np.sqrt(lam[-1] / lam[0])), c


def compensated_sup(A: np.ndarray, shift: float, h: float = 0.01,
                    t_max: float = 1e4) -> float:
    """max over t_j = j h of ||e^{A t_j}|| e^{-shift t_j}, shift > max Re eig.

    One :func:`power_norms` walk over j = 0, 1, ... takes SUP_FIRST_WALK
    powers, then extends from the next index, in chunks that at most
    double it, to the first t_j at which the bound amp e^{-c t} of
    :func:`lyapunov_tail` is no more than the running maximum.  No later
    sample can exceed that maximum, so the value equals the maximum over
    any longer grid bit for bit.  t_max caps the walk where no tail is
    certified.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[0] == 0:
        return 1.0
    amp, c = lyapunov_tail(A, shift)
    Eh, n_max = expm(A * h), int(t_max / h) + 1
    top, count, stop = 0.0, 0, min(SUP_FIRST_WALK, n_max)
    while count < stop:
        norms = power_norms(Eh, stop - count, count)
        ts = h * np.arange(count, stop)
        top = max(top, float(np.max(norms * np.exp(-shift * ts))))
        with np.errstate(divide="ignore"):   # inf where nothing is certified
            t_stop = np.log(amp / top) / c
        count, stop = stop, int(min(max(np.ceil(t_stop / h), stop),
                                    2 * stop, n_max))
    return top
