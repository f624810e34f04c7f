"""Tests of the discrete ellipsoidal observer for the weakly unobservable
block: parameter selectors, propagation, and the measurement update."""

import numpy as np
import pytest

from smobserver.decomposition import build_decomposition
from smobserver.errors import InvalidParameterError, SingularNoiseError
from smobserver.numerics import expm, simpson_matrix
from smobserver.weak import (BETA_HI, BETA_LO, alpha_k, build_Ku,
                             center_drive, check_shape, gamma_terms,
                             gk_matrix, measurement_update, optimize_beta,
                             predict_shape, propagate, quad_kernels,
                             stacking_gain, update_information,
                             update_is_informative, woodbury_shape)


def beta_of(P2_pred, C2, Gk):
    """:func:`optimize_beta` from the factor and the information matrix
    that the shape schedule hands it."""
    return optimize_beta(check_shape(P2_pred), update_information(C2, Gk))


@pytest.fixture(scope="module")
def dec_mixed(cfg_mixed):
    return build_decomposition(cfg_mixed.system)


def _step_inputs(m=20, dt=0.1):
    """(x1hat, eps1, c_w, K_w) on the m + 1 quadrature nodes of one step."""
    ts = np.linspace(0.0, dt, m + 1)
    return (0.5 * np.sin(3.0 * ts)[:, None], 0.2 * np.ones(m + 1),
            0.3 * np.sin(ts)[:, None],
            np.tile(np.array([[0.25]]), (m + 1, 1, 1)))


def _propagate(P2, dec, inp, dt, m):
    """(P2_pred, alpha, M2k) of one step at the step's own gain, as the
    shape schedule forms them: M2k from propagate on a batch of one step,
    then predict_shape."""
    _, eps1, _, Kw = inp
    gain = gamma_terms(Kw[-1], float(eps1[-1]), dec.n1)
    kernels = quad_kernels(dec.A4, dt / m, m)
    M2k = propagate(dec, eps1[None], Kw[None], dt, gain, kernels)[0]
    P2_pred, a = predict_shape(P2, M2k, dt, kernels, expm(dec.A4 * dt))
    return P2_pred, a, M2k


def _predict_center(x2, dec, inp, dt, m):
    """The predicted center of one run: e^{A4 dt} x2 plus the
    center_drive of the step's nodes."""
    x1hat, _, cw, _ = inp
    u = np.concatenate([x1hat, cw], axis=1)
    kernels = quad_kernels(dec.A4, dt / m, m)
    return (kernels[0] @ x2
            + np.einsum("jab,jb->a", center_drive(dec.B2p, dt, kernels), u))


def _gk(dec, inp):
    """G_k of the step's last node."""
    eps1, Kw = float(inp[1][-1]), inp[3][-1]
    return gk_matrix(dec, build_Ku(gamma_terms(Kw, eps1, dec.n1), eps1, Kw,
                                   dec.n1))


def test_gamma_terms_formula():
    Kw = np.diag([3.0, 5.0])
    g1, g2 = gamma_terms(Kw, 2.0, 4)
    s = np.sqrt(8.0 / 4.0) / 2.0
    assert g1 == pytest.approx(1.0 + s, rel=1e-14)
    assert g2 == pytest.approx(1.0 + 1.0 / s, rel=1e-14)
    assert (g1, g2) == stacking_gain(8.0, 2.0, 4)


def test_gamma_terms_stable_under_extreme_eps1():
    # s underflows next to 1: gamma rounds to 1 but the conjugate factor
    # stays finite and correct
    g1, g2 = gamma_terms(np.eye(1), 1e40, 1)
    assert g1 == 1.0
    assert g2 == pytest.approx(1.0 + 1e40, rel=1e-12)
    Ku = build_Ku((g1, g2), 1e40, np.eye(1), 1)
    assert Ku[1, 1] == pytest.approx(1.0 + 1e40, rel=1e-12)


def test_build_ku_block_layout():
    Ku = build_Ku((2.0, 2.0), 0.5, np.diag([3.0, 5.0]), 2)
    assert Ku.shape == (4, 4)
    assert np.allclose(np.diag(Ku), [0.5, 0.5, 6.0, 10.0])
    # an empty second factor leaves the uninflated ball
    assert np.array_equal(build_Ku((1.0, np.inf), 0.5, np.zeros((0, 0)), 2),
                          0.25 * np.eye(2))


def test_build_ku_equals_block_diag():
    """One block equals block_diag, and a stack of eps1 values and K_w
    shapes equals the per-node calls bit for bit."""
    import scipy.linalg as sla
    Kw = np.array([[3.0, 0.4], [0.4, 5.0]])
    for g1, g2 in ((2.0, 2.0), gamma_terms(Kw, 0.7, 3)):
        ref = sla.block_diag(g1 * 0.7 ** 2 * np.eye(3), g2 * Kw)
        assert np.array_equal(build_Ku((g1, g2), 0.7, Kw, 3), ref)
        eps1 = np.array([0.7, 1.3, 1e-3])
        Kws = np.stack([Kw, 2.0 * Kw, np.diag([0.5, 7.0])])
        stack = build_Ku((g1, g2), eps1, Kws, 3)
        assert stack.shape == (3, 5, 5)
        for j in range(3):
            assert np.array_equal(
                stack[j], build_Ku((g1, g2), float(eps1[j]), Kws[j], 3))


def test_quad_kernels_match_power_loop_and_cache_by_value():
    A4 = np.array([[-1.0, 0.3], [0.0, -2.0]])
    h, m = 0.005, 20
    kernels = quad_kernels(A4, h, m)
    Eh, P = expm(A4 * h), np.eye(2)
    for j in range(m, -1, -1):
        assert np.array_equal(kernels[j], P)
        P = Eh @ P
    assert not kernels.flags.writeable
    assert quad_kernels(np.zeros((0, 0)), h, m).shape == (m + 1, 0, 0)


def test_alpha_k_is_grid_argmin():
    """The closed form must hit the grid minimum of the trace objective."""
    rng = np.random.default_rng(8)
    grid = np.arange(1e-4, 1.0, 1e-4)
    for _ in range(20):
        n2 = int(rng.integers(1, 4))
        A4 = rng.standard_normal((n2, n2))
        M = rng.standard_normal((n2, n2))
        M2k = M @ M.T + 0.1 * np.eye(n2)
        Pm = rng.standard_normal((n2, n2))
        P2 = Pm @ Pm.T + 0.1 * np.eye(n2)
        dt = float(rng.uniform(0.05, 0.5))
        Ed = expm(A4 * dt)
        a = alpha_k(M2k, Ed, P2, dt)
        tp = np.trace(Ed @ P2 @ Ed.T)
        tm = np.trace(M2k)
        obj = tp / grid + dt * tm / (1.0 - grid)
        assert tp / a + dt * tm / (1.0 - a) <= np.min(obj) + 1e-8


def test_alpha_k_clips_degenerate_cases():
    with pytest.warns(UserWarning):
        a = alpha_k(np.zeros((1, 1)), np.zeros((1, 1)),
                    np.zeros((1, 1)), 0.1)
    assert a == 0.5


def test_optimize_beta_matches_dense_grid():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n2 = int(rng.integers(1, 5))
        n_y = int(rng.integers(1, 3))
        Pm = rng.standard_normal((n2, n2))
        P = Pm @ Pm.T + 0.2 * np.eye(n2)
        C2 = rng.standard_normal((n_y, n2))
        Gm = rng.standard_normal((n_y, n_y))
        Gk = Gm @ Gm.T + 0.2 * np.eye(n_y)
        b = beta_of(P, C2, Gk)

        Pinv = np.linalg.inv(P)
        CGC = C2.T @ np.linalg.solve(Gk, C2)

        def f(bs):
            out = np.empty(bs.shape)
            for i, bb in enumerate(bs):
                out[i] = np.trace(np.linalg.inv((1.0 - bb) * Pinv + bb * CGC))
            return out

        coarse = np.arange(1e-3, 1.0, 1e-3)
        b0 = coarse[np.argmin(f(coarse))]
        fine = np.arange(max(1e-6, b0 - 2e-3), min(1.0 - 1e-6, b0 + 2e-3),
                         1e-6)
        b_grid = fine[np.argmin(f(fine))]
        assert abs(b - b_grid) <= 1e-4


def test_optimize_beta_equals_generalized_eigh_form():
    """The weight from the factor's eigendecomposition equals the one from
    scipy's generalized eigh of (C2^T Gk^-1 C2, P^-1), to 1e-10."""
    import scipy.linalg as sla
    from scipy.optimize import brentq
    rng = np.random.default_rng(10)
    for _ in range(50):
        n2, n_y = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        Pm = rng.standard_normal((n2, n2))
        P = Pm @ Pm.T + 0.1 * np.eye(n2)
        C2 = rng.standard_normal((n_y, n2))
        Gm = rng.standard_normal((n_y, n_y))
        Gk = Gm @ Gm.T + 0.1 * np.eye(n_y)
        lam, V = sla.eigh(C2.T @ np.linalg.solve(Gk, C2), np.linalg.inv(P))
        c = np.sum(V ** 2, axis=0)

        def df(b):
            return np.sum(c * (1.0 - lam) / (1.0 - b + b * lam) ** 2)

        ref = (BETA_LO if df(BETA_LO) >= 0.0 else BETA_HI
               if df(BETA_HI) <= 0.0 else brentq(df, BETA_LO, BETA_HI))
        assert abs(beta_of(P, C2, Gk) - ref) <= 1e-10


def test_optimize_beta_monotone_scalar_block_hits_endpoints():
    """With n2 = 1 the objective c / (1 - b + b lam) is monotone, so the
    weight is exactly an endpoint of [BETA_LO, BETA_HI]."""
    P, C2 = np.array([[1.0]]), np.array([[1.0]])
    # lam = 0.25 < 1: the trace grows with b
    assert beta_of(P, C2, np.array([[4.0]])) == BETA_LO
    # lam = 4 > 1: the trace falls with b
    assert beta_of(P, C2, np.array([[0.25]])) == BETA_HI


def test_optimize_beta_flat_objective_gives_half():
    """C2^T Gk^{-1} C2 = P^{-1} makes the objective constant in b."""
    P = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert beta_of(P, np.eye(2), P) == 0.5


def test_optimize_beta_rejects_singular_gk():
    """The G_k test runs in :func:`update_information`, before any beta: a
    singular or indefinite G_k raises, alone or anywhere in a stack."""
    for Gk in (np.zeros((2, 2)), np.diag([1.0, -1.0])):
        with pytest.raises(SingularNoiseError):
            beta_of(np.eye(2), np.eye(2), Gk)
        with pytest.raises(SingularNoiseError):
            update_information(np.eye(2), np.stack([np.eye(2), Gk]))


def test_optimize_beta_checks_gk_without_is_spd(monkeypatch):
    """G_k's one check is an eigenvalue test, not a second is_spd."""
    import smobserver.weak as weak

    def forbidden(*args, **kwargs):
        raise AssertionError("is_spd called by optimize_beta")

    monkeypatch.setattr(weak, "is_spd", forbidden, raising=False)
    P = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert BETA_LO <= beta_of(P, np.eye(2), np.eye(2)) <= BETA_HI


def test_center_drive_is_simpson_of_the_kernels(dec_mixed):
    """Contracting the Simpson-weighted stack with any node values u gives
    the composite Simpson integral of kernels B2' u."""
    dt, m = 0.1, 20
    kernels = quad_kernels(dec_mixed.A4, dt / m, m)
    u = np.random.default_rng(3).standard_normal(
        (m + 1, dec_mixed.B2p.shape[1], 4))
    ref = simpson_matrix(kernels @ dec_mixed.B2p @ u, dt / m)
    got = np.einsum("jab,jbr->ar", center_drive(dec_mixed.B2p, dt, kernels),
                    u)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_propagate_center_matches_fine_ode(dec_mixed):
    """With the nominal signals the predicted center solves the x2 block ODE
    driven by (x1hat, cw)."""
    dt, m = 0.1, 20
    x2, P2 = np.array([0.3]), np.array([[0.04]])
    inp = _step_inputs(m, dt)
    P2p, a, M2k = _propagate(P2, dec_mixed, inp, dt, m)
    x2p = _predict_center(x2, dec_mixed, inp, dt, m)
    # reference: RK4 at a much finer step on the same analytic signals
    x = x2.copy()
    N = 4000
    h = dt / N
    A4, B2p = dec_mixed.A4, dec_mixed.B2p

    def rhs(xx, t):
        u = np.array([0.5 * np.sin(3.0 * t), 0.3 * np.sin(t)])
        return A4 @ xx + B2p @ u

    for j in range(N):
        t = j * h
        k1 = rhs(x, t)
        k2 = rhs(x + h / 2 * k1, t + h / 2)
        k3 = rhs(x + h / 2 * k2, t + h / 2)
        k4 = rhs(x + h * k3, t + h)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert np.allclose(x2p, x, rtol=1e-9, atol=1e-10)
    assert 0.0 < a < 1.0
    assert np.all(np.linalg.eigvalsh(P2p) > 0.0)


def test_propagate_containment_monte_carlo(dec_mixed):
    """Admissible trajectories started inside the current ellipsoid stay in
    the predicted one."""
    rng = np.random.default_rng(0)
    dt, m = 0.1, 20
    x2, P2 = np.array([0.3]), np.array([[0.04]])
    inp = _step_inputs(m, dt)
    P2p, _, _ = _propagate(P2, dec_mixed, inp, dt, m)
    x2p = _predict_center(x2, dec_mixed, inp, dt, m)
    A4, B2p = dec_mixed.A4, dec_mixed.B2p
    worst = 0.0
    for _ in range(100):
        x = x2 + np.sqrt(P2[0, 0]) * rng.uniform(-1.0, 1.0, 1)
        th = rng.uniform(0.0, 2.0 * np.pi)
        amp = rng.uniform(0.0, 1.0)

        def rhs(xx, t):
            x1 = 0.5 * np.sin(3.0 * t) + 0.2 * amp * np.sin(t + th)
            w = 0.3 * np.sin(t) + 0.5 * amp * np.cos(2.0 * t + th)
            return A4 @ xx + B2p @ np.array([x1, w])

        N = 500
        h = dt / N
        for j in range(N):
            t = j * h
            k1 = rhs(x, t)
            k2 = rhs(x + h / 2 * k1, t + h / 2)
            k3 = rhs(x + h / 2 * k2, t + h / 2)
            k4 = rhs(x + h * k3, t + h)
            x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        q = float((x - x2p) @ np.linalg.solve(P2p, x - x2p))
        worst = max(worst, q)
    assert worst <= 1.0 + 1e-9


def test_propagate_builds_ku_once_per_step(dec_mixed, monkeypatch):
    """M2k comes from one stacked K_u over all quadrature nodes."""
    import smobserver.weak as weak
    calls = []

    def counting_build_Ku(*args, **kwargs):
        calls.append(1)
        return build_Ku(*args, **kwargs)

    monkeypatch.setattr(weak, "build_Ku", counting_build_Ku)
    _propagate(np.array([[0.04]]), dec_mixed, _step_inputs(20, 0.1), 0.1, 20)
    assert len(calls) == 1


def test_batched_p2_free_terms_equal_single_steps(dec_mixed):
    """propagate's M2k stack, the gamma pairs, the G_k stack and the gate
    over N steps equal the same functions on one step at a time, bit for
    bit."""
    rng = np.random.default_rng(4)
    N, m, dt = 6, 20, 0.1
    eps1 = rng.uniform(0.05, 2.0, (N, m + 1))
    Kw = rng.uniform(0.1, 1.0, (N, m + 1, 1, 1))
    kernels = quad_kernels(dec_mixed.A4, dt / m, m)
    gain = gamma_terms(Kw[:, -1], eps1[:, -1], dec_mixed.n1)
    M2k = propagate(dec_mixed, eps1, Kw, dt, gain, kernels)
    Gk = gk_matrix(dec_mixed, build_Ku(gain, eps1[:, -1], Kw[:, -1],
                                       dec_mixed.n1))
    gate = update_is_informative(dec_mixed, Gk)
    assert M2k.shape == (N, 1, 1) and gate.shape == (N,)
    for k in range(N):
        g = gamma_terms(Kw[k, -1], float(eps1[k, -1]), dec_mixed.n1)
        assert (gain[0][k], gain[1][k]) == g
        assert np.array_equal(
            M2k[k], propagate(dec_mixed, eps1[k:k + 1], Kw[k:k + 1], dt, g,
                              kernels)[0])
        Gk_one = gk_matrix(dec_mixed, build_Ku(g, float(eps1[k, -1]),
                                               Kw[k, -1], dec_mixed.n1))
        assert np.array_equal(Gk[k], Gk_one)
        assert gate[k] == update_is_informative(dec_mixed, Gk_one)


def test_propagate_rejects_odd_substeps(dec_mixed):
    with pytest.raises(InvalidParameterError):
        _propagate(np.eye(1), dec_mixed, _step_inputs(20), 0.1, 5)


def test_measurement_update_matches_woodbury(dec_mixed):
    """The gain-form update and the inverse-combination form agree."""
    dt, m = 0.1, 20
    inp = _step_inputs(m, dt)
    P2p, _, _ = _propagate(np.array([[0.04]]), dec_mixed, inp, dt, m)
    Gk = _gk(dec_mixed, inp)
    assert update_is_informative(dec_mixed, Gk)
    beta = beta_of(P2p, dec_mixed.C2, Gk)
    P2, Ok = measurement_update(P2p, dec_mixed.C2, beta, Gk)
    ref = woodbury_shape(P2p, dec_mixed.C2, Gk, beta)
    assert np.allclose(P2, ref, rtol=1e-10, atol=1e-14)
    # the gain form: P2 = (I - O_k C2) P2_pred / (1 - beta)
    assert np.allclose(P2, (np.eye(1) - Ok @ dec_mixed.C2) @ P2p
                       / (1.0 - beta), rtol=1e-12, atol=0.0)


def test_measurement_update_shrinks_trace(dec_mixed):
    dt, m = 0.1, 20
    inp = _step_inputs(m, dt)
    P2p, _, _ = _propagate(np.array([[0.04]]), dec_mixed, inp, dt, m)
    Gk = _gk(dec_mixed, inp)
    beta = beta_of(P2p, dec_mixed.C2, Gk)
    P2, _ = measurement_update(P2p, dec_mixed.C2, beta, Gk)
    # the optimizer does at least as well as the interval endpoints; the
    # beta -> 0 limit itself lies just outside the clipped interval
    for b_ref in (BETA_LO, BETA_HI):
        ref = woodbury_shape(P2p, dec_mixed.C2, Gk, b_ref)
        assert np.trace(P2) <= np.trace(ref) * (1.0 + 1e-6)
    # and stays within the clipped-endpoint slack of the skip alternative
    assert np.trace(P2) <= np.trace(P2p) * (1.0 + 10.0 * BETA_LO)


def test_update_gate_on_uninformative_output(design_ex2):
    dec = design_ex2.dec
    # the benchmark's C2 vanishes, so no G_k can make the update informative
    assert not update_is_informative(dec, np.eye(dec.system.n_y))


def test_check_shape_rejects_indefinite_shape():
    with pytest.raises(InvalidParameterError, match="SPD"):
        check_shape(np.diag([1.0, -1e-9]))
    with pytest.raises(InvalidParameterError, match="finite"):
        check_shape(np.array([[np.inf]]))
    P = np.array([[1.0, 1e-6], [1e-6, 1e-9 + 1e-12]])
    L = check_shape(P)
    assert np.array_equal(L, np.tril(L))
    assert np.allclose(L @ L.T, P, rtol=1e-14, atol=0.0)
