"""Tests of the high-gain derivative bank and its decay envelope."""

import numpy as np
import pytest

from smobserver.errors import InvalidDesignError, InvalidParameterError
from smobserver.hgo import (HgoConfig, assemble_z_hat, decay_constants,
                            design_hgo, initial_state,
                            step_hgo)
from smobserver.numerics import expm


def test_design_all_poles_at_minus_p():
    cfg = design_hgo(2, 0.01, 2.0)
    # coefficients must match the binomial expansion of (s + 2)^3
    ref = np.poly([-2.0, -2.0, -2.0])
    assert np.allclose(np.concatenate([[1.0], cfg.theta]), ref, atol=1e-12)


def test_config_rejects_non_hurwitz():
    with pytest.raises(InvalidDesignError):
        HgoConfig(l=0, eps=0.01, theta=(-1.0,), n_y=1)


def test_config_rejects_bad_eps():
    with pytest.raises(InvalidParameterError):
        design_hgo(1, 1.5, 1.0)


def test_companion_matrices_structure():
    cfg = design_hgo(1, 0.1, 1.0)
    # a_z first column carries -theta_j / eps^{j+1}
    assert cfg.a_z[0, 0] == pytest.approx(-cfg.theta[0] / 0.1)
    assert cfg.a_z[1, 0] == pytest.approx(-cfg.theta[1] / 0.01)
    assert cfg.a_z[0, 1] == 1.0
    # a_eta is gain-free with the same characteristic polynomial roots
    lam = np.linalg.eigvals(cfg.a_eta)
    assert np.max(lam.real) < 0.0


def test_step_tracks_constant_signal():
    cfg = design_hgo(1, 0.01, 1.0)
    st = initial_state(cfg, np.array([0.0]))
    for _ in range(5000):
        st = step_hgo(cfg, st, np.array([2.0]), 1e-3)
    # estimate converges to (value, derivative) = (2, 0)
    assert st.zhat[0, 0] == pytest.approx(2.0, abs=1e-6)
    assert st.zhat[1, 0] == pytest.approx(0.0, abs=1e-6)


def test_step_estimates_sine_derivatives():
    cfg = design_hgo(2, 0.01, 1.0)
    st = initial_state(cfg, np.array([0.0]))
    h = 1e-4
    for j in range(int(3.0 / h)):
        st = step_hgo(cfg, st, np.array([np.sin(j * h)]), h)
    t = st.t
    truth = np.array([np.sin(t), np.cos(t), -np.sin(t)])
    err = np.abs(st.zhat[:, 0] - truth)
    # steady-state error scales like eps^{l+1-k} |y^{(l+1)}|
    assert err[0] < 1e-4
    assert err[1] < 1e-2
    assert err[2] < 1.0


def test_step_matches_exact_zoh_recurrence():
    cfg = design_hgo(1, 0.05, 1.0, n_y=2)
    rng = np.random.default_rng(0)
    st = initial_state(cfg, rng.standard_normal(2))
    y = rng.standard_normal(2)
    h = 0.01
    nxt = step_hgo(cfg, st, y, h)
    # oracle: integrate dz = a_z z + b_z y with y frozen, via the augmented
    # exponential
    n = cfg.l + 1
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = cfg.a_z * h
    M[:n, n] = cfg.b_z * h
    E = expm(M)
    for ch in range(2):
        z = np.concatenate([st.zhat[:, ch], [y[ch]]])
        assert np.allclose(nxt.zhat[:, ch], (E @ z)[:n], rtol=1e-10,
                           atol=1e-12)


def test_assemble_scatter_round_trip():
    cfg = design_hgo(2, 0.01, 1.0, n_y=3)
    rng = np.random.default_rng(5)
    st = initial_state(cfg, rng.standard_normal(3))
    st.zhat = rng.standard_normal((3, 3))
    flat = assemble_z_hat(cfg, st)
    assert flat.shape == (9,)
    # derivative-order-major: first n_y entries are the 0th derivatives
    assert np.allclose(flat[:3], st.zhat[0])
    assert np.array_equal(flat.reshape(cfg.l + 1, cfg.n_y), st.zhat)


def test_decay_constants_dominate_envelope():
    for l in (0, 1, 2):
        cfg = design_hgo(l, 0.01, 1.0)
        K, a = decay_constants(cfg)
        assert K >= 1.0 and a > 0.0
        ts = np.linspace(0.0, 20.0, 400)
        for t in ts:
            nrm = np.linalg.norm(expm(cfg.a_eta * t), 2)
            assert nrm <= K * np.exp(-a * t) * (1.0 + 1e-9)


def test_decay_constants_walk_stops_at_certified_tail(design_ex1,
                                                      monkeypatch):
    """example1's derivative bank peaks near t = 10 s; the sup walk stops
    at its certified tail within 6,401 powers (a walk to a 1e-6 decay floor
    took 25,601)."""
    import smobserver.numerics as numerics
    walked = []
    power_norms = numerics.power_norms

    def counting_power_norms(Eh, count, start=0):
        walked.append(count)
        return power_norms(Eh, count, start)

    monkeypatch.setattr(numerics, "power_norms", counting_power_norms)
    decay_constants(design_ex1.hgo_cfg)
    assert 0 < sum(walked) <= 6401
