"""Test oracles: the two matrix forms of the weak-block measurement update,
as references of the eigenbasis form that ``weak.measurement_update``
implements, and the continuous plant / derivative-bank / observer cascade,
as references of the lifted center recurrence."""

import numpy as np
import scipy.linalg as sla

from smobserver.numerics import symmetrize


def woodbury_shape(P2_pred, C2, Gk, beta):
    """The inverse-combination form of the updated shape,
    ((1 - beta) P2_pred^{-1} + beta C2^T Gk^{-1} C2)^{-1}."""
    X = symmetrize((1.0 - beta) * np.linalg.inv(P2_pred)
                   + beta * C2.T @ np.linalg.solve(Gk, C2))
    return symmetrize(np.linalg.inv(X))


def kalman_update(P2_pred, C2, Gk, beta):
    """The gain form (P2, O_k): S = C2 P C2^T / (1-b) + Gk / b,
    O_k = P C2^T S^{-1} / (1-b) and P2 = (I - O_k C2) P / (1-b).  Near
    beta = 1 its shape cancels about six digits in I - O_k C2."""
    S = C2 @ P2_pred @ C2.T / (1.0 - beta) + Gk / beta
    Ok = P2_pred @ C2.T @ np.linalg.inv(S) / (1.0 - beta)
    return (np.eye(P2_pred.shape[0]) - Ok @ C2) @ P2_pred / (1.0 - beta), Ok


# -- the continuous center cascade ------------------------------------------

def cascade(design):
    """(A_s, B_s) of s' = A_s s + B_s w, s = [x; vec(Z); x1hat]: the plant,
    the derivative bank driven by y = C x + D w (its state stacked
    derivative-order major) and the observer driven by the bank."""
    sys, hgo, uio = design.dec.system, design.hgo_cfg, design.uio
    n, n_y = sys.n_x, sys.n_y
    n_z = (hgo.l + 1) * n_y
    bz = np.kron(hgo.b_z[:, None], np.eye(n_y))
    A_s = sla.block_diag(sys.A, np.kron(hgo.a_z, np.eye(n_y)), uio.E)
    A_s[n:n + n_z, :n] = bz @ sys.C
    A_s[n + n_z:, n:n + n_z] = uio.F
    B_s = np.zeros((A_s.shape[0], sys.n_w))
    B_s[:n], B_s[n:n + n_z] = sys.B, bz @ sys.D
    return A_s, B_s


def initial_cascade_state(design, x0, w0):
    """The plant at ``x0``, the bank at its output y(0) and the observer at
    the split of ``xhat0``."""
    dec, sys = design.dec, design.dec.system
    A_s, _ = cascade(design)
    s = np.zeros(A_s.shape[0])
    s[:sys.n_x] = x0
    s[sys.n_x:sys.n_x + sys.n_y] = sys.C @ x0 + sys.D @ w0
    s[A_s.shape[0] - dec.n1:] = (dec.P1 @ design.cfg.xhat0)[:dec.n1]
    return s


def reachable(N):
    """Entries of e^N that some path of N's sparsity pattern reaches: the
    positive entries of the exponential of the 0/1 pattern."""
    return sla.expm((N != 0.0).astype(float)) > 0.0


def hold_step(A, B, h):
    """The exact step x(h) = Ad x(0) + G @ [w(0); w(h/2); w(h)] of
    dx = Ax + Bw for w quadratic through those samples.  The monomial
    moments h int_0^1 e^{Ah(1-s)} B s^k ds, k = 0..2, come from the
    exponential of the exosystem [[A h, B h, 0, 0], [0, 0, I, 0],
    [0, 0, 0, 2 I], [0, 0, 0, 0]]; the inverse Vandermonde matrix of the
    nodes 0, 1/2, 1 maps them onto the samples.  Entries no path reaches
    are exact zeros."""
    n, m = B.shape
    N = np.zeros((n + 3 * m, n + 3 * m))
    N[:n, :n], N[:n, n:n + m] = A * h, B * h
    N[n:n + m, n + m:n + 2 * m] = np.eye(m)
    N[n + m:n + 2 * m, n + 2 * m:] = 2.0 * np.eye(m)
    X = np.where(reachable(N), sla.expm(N), 0.0)[:n]
    moments = X[:, n:].reshape(n, 3, m)
    lagrange = np.linalg.inv(np.vander([0.0, 0.5, 1.0], increasing=True))
    G = np.einsum("nkm,kj->njm", moments, lagrange).reshape(n, 3 * m)
    return X[:, :n], G


def exosystem_centers(design, x0, signal):
    """The exact centers of one run whose input is the sum of sines (and
    constants) ``signal``: the cascade plus one harmonic oscillator
    [sin(w t + p); cos(w t + p)] per term, advanced by one exponential per
    quad step.

    Returns the plant state at every sample time and x1hat on every quad
    node.
    """
    cfg, n1 = design.cfg, design.dec.n1
    A_s, B_s = cascade(design)
    bank = signal.sine_bank()
    gains, freqs, phases = bank.gains[..., 0], bank.freqs[:, 0], \
        bank.phases[:, 0]
    ds, terms = A_s.shape[0], freqs.size
    A = np.zeros((ds + 2 * terms, ds + 2 * terms))
    A[:ds, :ds] = A_s
    A[:ds, ds::2] = B_s @ gains             # w = sum_j g_j sin(w_j t + p_j)
    for j, f in enumerate(freqs):
        A[ds + 2 * j:ds + 2 * j + 2, ds + 2 * j:ds + 2 * j + 2] = \
            [[0.0, f], [-f, 0.0]]
    v = np.zeros(ds + 2 * terms)
    v[:ds] = initial_cascade_state(design, x0, gains @ np.sin(phases))
    v[ds::2], v[ds + 1::2] = np.sin(phases), np.cos(phases)
    step = sla.expm(A * (cfg.dt / cfg.quad_substeps))
    nodes = [v]
    for _ in range(cfg.n_steps * cfg.quad_substeps):
        nodes.append(step @ nodes[-1])
    nodes = np.array(nodes)
    n = design.dec.system.n_x
    return nodes[::cfg.quad_substeps, :n], nodes[:, ds - n1:ds]
