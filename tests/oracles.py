"""Test oracles: the two matrix forms of the weak-block measurement update,
as references of the eigenbasis form that ``weak.measurement_update``
implements; the continuous plant / derivative-bank / observer cascade
with the weak block's predictor, as references of the lifted center
recurrence; and per-cell ``csv.writer`` writers of the output files, as
byte references of the column writers."""

import csv

import numpy as np
import scipy.linalg as sla

from smobserver.numerics import symmetrize
from smobserver.pipeline import trace_header


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


def sqrtm_polyline(center, K, n_points=50):
    """The closed boundary polyline center + sqrtm(K) [cos phi; sin phi] of
    a 2-D ellipsoid, phi on n_points equally spaced angles in [0, 2 pi]:
    the per-row reference of ``ellipsoid.boundary_polylines``."""
    phi = np.linspace(0.0, 2.0 * np.pi, n_points)
    return center + (sla.sqrtm(K).real @ np.vstack([np.cos(phi),
                                                    np.sin(phi)])).T


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


def exosystem_centers(design, x0, signal, schedule):
    """The exact centers of one run whose input is the sum of sines (and
    constants) ``signal``: the cascade, the weak block's predictor
    x2hat' = A4 x2hat + A2 x1hat + B2 c_w, and one harmonic oscillator
    [sin(w t + p); cos(w t + p)] per term of ``signal`` and of c_w,
    advanced by one exponential per quad step.  At every t_k where
    ``schedule`` opens the gate, x2hat jumps by
    O_k (y_k - C1 x1hat - D c_w(t_k) - C2 x2hat).

    Returns the plant state at every sample time, x1hat on every quad node
    and x2hat at every sample time.
    """
    cfg, dec = design.cfg, design.dec
    sys, n1, n2, n_q = dec.system, dec.n1, dec.n2, cfg.quad_substeps
    A_s, B_s = cascade(design)
    ds = A_s.shape[0]
    x1, x2 = slice(ds - n1, ds), slice(ds, ds + n2)
    w_bank, c_bank = signal.sine_bank(), cfg.cw.sine_bank()
    g_w, g_c = w_bank.gains[..., 0], c_bank.gains[..., 0]
    terms = [(f, p) for bank in (w_bank, c_bank)
             for f, p in zip(bank.freqs[:, 0], bank.phases[:, 0])]
    w_sin = slice(ds + n2, ds + n2 + 2 * g_w.shape[1], 2)
    c_sin = slice(w_sin.stop, None, 2)
    A = np.zeros((ds + n2 + 2 * len(terms),) * 2)
    A[:ds, :ds] = A_s
    A[:ds, w_sin] = B_s @ g_w               # w = sum_j g_j sin(w_j t + p_j)
    A[x2, x1], A[x2, x2], A[x2, c_sin] = dec.A2, dec.A4, dec.B2 @ g_c
    v = np.zeros(len(A))
    for j, (f, p) in enumerate(terms):
        o = slice(ds + n2 + 2 * j, ds + n2 + 2 * j + 2)
        A[o, o] = [[0.0, f], [-f, 0.0]]
        v[o] = np.sin(p), np.cos(p)
    v[:ds] = initial_cascade_state(design, x0, g_w @ v[w_sin])
    v[x2] = (dec.P1 @ cfg.xhat0)[n1:]
    step = sla.expm(A * (cfg.dt / n_q))
    nodes = [v]
    for i in range(1, cfg.n_steps * n_q + 1):
        v = step @ v
        k, r = divmod(i, n_q)
        if r == 0 and not schedule.skipped[k]:
            y = sys.C @ v[:sys.n_x] + sys.D @ (g_w @ v[w_sin])
            v[x2] += schedule.O[k] @ (y - sys.D @ (g_c @ v[c_sin])
                                      - dec.C1 @ v[x1] - dec.C2 @ v[x2])
        nodes.append(v)
    nodes = np.array(nodes)
    return nodes[::n_q, :sys.n_x], nodes[:, x1], nodes[::n_q, x2]


# -- the per-cell CSV writers -----------------------------------------------

def fmt_cell(v) -> str:
    """One float cell: its shortest round-trip ``repr``."""
    return repr(float(v))


def row_emit_traces(traces, path) -> None:
    """``traces.csv`` one row and one cell at a time: the byte reference of
    ``pipeline.emit_traces``."""
    n = traces.dtype["x_true"].shape[0]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(trace_header(n))
        for row in traces:
            writer.writerow(
                [fmt_cell(row.t)] + [fmt_cell(v) for v in row.x_true]
                + [fmt_cell(v) for v in row.xhat]
                + [fmt_cell(v) for v in row.lo]
                + [fmt_cell(v) for v in row.hi]
                + [fmt_cell(row.trP), fmt_cell(row.vol), fmt_cell(row.eps1),
                   fmt_cell(row.alpha), fmt_cell(row.beta),
                   fmt_cell(row.gamma), fmt_cell(row.mu),
                   str(int(row.contained)), str(int(row.skipped))])


def row_emit_plot_data(run, out_dir, ellipse_axes=None) -> None:
    """The plot files one row and one cell at a time: the byte reference of
    ``pipeline.emit_plot_data``, whose ellipse polylines are closed form
    where these take ``sqrtm`` per row."""
    n = run.traces.dtype["x_true"].shape[0]
    with open(out_dir / "plot_volume.csv", "w", newline="",
              encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "vol", "trP"])
        for row in run.traces:
            w.writerow([fmt_cell(row.t), fmt_cell(row.vol),
                        fmt_cell(row.trP)])
    with open(out_dir / "plot_bounds.csv", "w", newline="",
              encoding="utf-8") as fh:
        w = csv.writer(fh)
        head = ["t"]
        for i in range(n):
            head += [f"x{i}", f"lo{i}", f"hi{i}"]
        w.writerow(head)
        for row in run.traces:
            rec = [fmt_cell(row.t)]
            for i in range(n):
                rec += [fmt_cell(row.x_true[i]), fmt_cell(row.lo[i]),
                        fmt_cell(row.hi[i])]
            w.writerow(rec)
    if ellipse_axes is None:
        return
    i, j = ellipse_axes
    with open(out_dir / f"plot_ellipses_x{i}x{j}.csv", "w", newline="",
              encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "px", "py"])
        for row, K in zip(run.traces, run.schedule.shape):
            for p in sqrtm_polyline(
                    np.array([row.xhat[i], row.xhat[j]]),
                    np.array([[K[i, i], K[i, j]], [K[j, i], K[j, j]]])):
                w.writerow([fmt_cell(row.t), fmt_cell(p[0]),
                            fmt_cell(p[1])])
