"""Property test of the shape schedule's weak-block recursion against a
step-by-step reference on random stable weak blocks (n2 <= 3) whose
update gate opens on some steps and closes on others."""

from types import SimpleNamespace

import numpy as np
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from smobserver.numerics import expm
from smobserver.pipeline import shape_schedule
from smobserver.weak import (BETA_FLAT_TOL, BETA_HI, BETA_LO, build_Ku,
                             gamma_terms, gk_matrix, propagate, quad_kernels)
from oracles import kalman_update, woodbury_shape

RTOL = 1e-9


def _spd(rng, n, scale=1.0):
    M = rng.standard_normal((n, n))
    return scale * (M @ M.T + 0.1 * np.eye(n))


def random_design(seed: int, n2: int, gates: list):
    """A design-like record of a random stable weak block with n_w = 2.

    G_k = D2' K_u D2'^T sees only the second input, through D2w, and
    K_w(t_k) = diag(1, 0) on the steps whose gate is closed, so the update
    gate itself closes exactly there.  n_y is 2 for a third of the seeds
    when n2 >= 2, else 1."""
    rng = np.random.default_rng(seed)
    n1, n_w, n_q, dt, N = 1 + seed % 2, 2, 4, 0.1, len(gates)
    n_y = 1 + (n2 >= 2 and seed % 3 == 0)
    R = rng.standard_normal((n2, n2))
    A4 = R - (np.max(np.linalg.eigvals(R).real)
              + rng.uniform(0.1, 1.0)) * np.eye(n2)
    D2w = (rng.standard_normal((2, n_w)) if n_y == 2
           else np.array([[0.0, rng.uniform(0.5, 2.0)]]))
    Kw_q = np.tile(np.eye(n_w), (N * n_q + 1, 1, 1))
    Kw_q[:, 1, 1] = rng.uniform(0.2, 1.0, N * n_q + 1)
    Kw_q[n_q::n_q][~np.asarray(gates), 1, 1] = 0.0
    dec = SimpleNamespace(
        n1=n1, n2=n2, system=SimpleNamespace(n_y=n_y),
        P1=np.eye(n1 + n2), A4=A4,
        B2p=rng.standard_normal((n2, n1 + n_w)),
        D2p=np.hstack([np.zeros((n_y, n1)), D2w]),
        C2=rng.standard_normal((n_y, n2)))
    cfg = SimpleNamespace(n_steps=N, quad_substeps=n_q, dt=dt,
                          K0=_spd(rng, n1 + n2, 0.1), Kw=lambda ts: Kw_q)
    return SimpleNamespace(
        cfg=cfg, dec=dec,
        eps1_ts=np.arange(N * n_q + 1) * (dt / n_q),
        eps1_grid=rng.uniform(0.05, 0.5, N * n_q + 1))


def reference_beta(P_pred, C2, Gk):
    """beta_k from scipy's generalized eigh of (C2^T Gk^-1 C2, P^-1) and a
    root of f' to full precision, with the endpoint and flat rules."""
    lam, V = sla.eigh(C2.T @ np.linalg.solve(Gk, C2), np.linalg.inv(P_pred))
    c = np.sum(V ** 2, axis=0)

    def f(b):
        return np.sum(c / (1.0 - b + b * lam))

    def df(b):
        return np.sum(c * (1.0 - lam) / (1.0 - b + b * lam) ** 2)

    beta = (BETA_LO if df(BETA_LO) >= 0.0 else BETA_HI if df(BETA_HI) <= 0.0
            else brentq(df, BETA_LO, BETA_HI, xtol=1e-300))
    top = max(f(BETA_LO), f(BETA_HI))
    return 0.5 if top - f(beta) <= BETA_FLAT_TOL * max(top, 1.0) else beta


def reference_schedule(design, gates):
    """(alpha, beta, P2_pred, P2, O) of steps 1..N, one step at a time, in
    matrix form: alpha by its closed form at e^{A4 dt}, the updated shape
    by woodbury_shape and the gain by the Kalman form."""
    cfg, dec = design.cfg, design.dec
    n_q, dt, n1 = cfg.quad_substeps, cfg.dt, dec.n1
    Em = expm(dec.A4 * dt)
    kernels = quad_kernels(dec.A4, dt / n_q, n_q)
    Kw_q = cfg.Kw(design.eps1_ts)
    P = (dec.P1 @ cfg.K0 @ dec.P1.T)[n1:, n1:]
    steps = []
    for k, opens in enumerate(gates):
        nodes = slice(k * n_q, (k + 1) * n_q + 1)
        eps1, Kw = design.eps1_grid[nodes], Kw_q[nodes]
        gain = gamma_terms(Kw[-1], eps1[-1], n1)
        M2k = propagate(dec, eps1[None], Kw[None], dt, gain, kernels)[0]
        tp, tm = np.trace(Em @ P @ Em.T), dt * np.trace(M2k)
        a = np.sqrt(tp) / (np.sqrt(tp) + np.sqrt(tm))
        P_pred = Em @ P @ Em.T / a + dt * M2k / (1.0 - a)
        beta, O, P = 0.0, np.zeros((dec.n2, dec.system.n_y)), P_pred
        if opens:
            Gk = gk_matrix(dec, build_Ku(gain, eps1[-1], Kw[-1], n1))
            beta = reference_beta(P_pred, dec.C2, Gk)
            O = kalman_update(P_pred, dec.C2, Gk, beta)[1]
            P = woodbury_shape(P_pred, dec.C2, Gk, beta)
        steps.append((a, beta, P_pred, P, O))
    return [np.array(column) for column in zip(*steps)]


def close(got, ref) -> bool:
    """Each entry k of ``got`` within RTOL of ``ref`` in relative norm."""
    axes = tuple(range(1, np.ndim(ref)))
    err = np.sqrt(np.sum((got - ref) ** 2, axis=axes))
    return bool(np.all(err <= RTOL * np.sqrt(np.sum(ref ** 2, axis=axes))))


@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=3),
       st.lists(st.booleans(), min_size=2, max_size=12).filter(
           lambda gates: any(gates) and not all(gates)))
@settings(max_examples=60, deadline=None)
def test_schedule_equals_step_by_step_reference(seed, n2, gates):
    """alpha, beta, P2_pred, P2 and O of the schedule equal the reference
    to 1e-9 relative, the gate follows G_k, and the trace of each updated
    shape is the beta objective f(beta_k) = tr(((1 - b) P_pred^{-1} +
    b C2^T Gk^{-1} C2)^{-1}) at its weight."""
    design = random_design(seed, n2, gates)
    schedule = shape_schedule(design)
    assert np.array_equal(schedule.skipped[1:], ~np.asarray(gates))
    alpha, beta, P2_pred, P2, O = reference_schedule(design, gates)
    assert close(schedule.alpha[1:], alpha)
    assert close(schedule.beta[1:], beta)
    assert close(schedule.P2_pred[1:], P2_pred)
    assert close(schedule.P2[1:], P2)
    assert close(schedule.O[1:], O)
    C2 = design.dec.C2
    for k in np.flatnonzero(gates) + 1:
        f = np.trace(woodbury_shape(schedule.P2_pred[k], C2,
                                    schedule.Gk[k], schedule.beta[k]))
        assert abs(np.trace(schedule.P2[k]) - f) <= 1e-12 * f
