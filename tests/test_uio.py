"""Tests of the unknown-input observer synthesis and the analytic error
envelope eps1(t)."""

import gc

import numpy as np
import pytest

from smobserver.errors import InvalidParameterError
from smobserver.numerics import expm, spectral_norm, zoh
from smobserver.pipeline import build_design
from smobserver.uio import (Epsilon1Evaluator, ErrorBoundParams,
                            GAIN_RESIDUAL_TOL, UioDesign,
                            build_markov_matrices,
                            derivative_error_envelope,
                            _cell_weights, epsilon1_uniform_bounds,
                            gain_target, solve_uio_gain, step_uio)


def test_markov_matrices_hand_example():
    # A1 = [[0,1],[0,0]], C1 = [1,0], B1p = I2, D1p = [0,0], l = 1
    A1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    C1 = np.array([[1.0, 0.0]])
    B1p = np.eye(2)
    D1p = np.zeros((1, 2))
    Ol, Gl = build_markov_matrices(A1, C1, B1p, D1p, 1)
    assert np.allclose(Ol, np.array([[1.0, 0.0], [0.0, 1.0]]))
    # second block row of Gl is C1 A1^0 B1p = [1, 0]
    assert np.allclose(Gl, np.array([[0.0, 0.0, 0.0, 0.0],
                                     [1.0, 0.0, 0.0, 0.0]]))


def test_gain_target_layout():
    M = gain_target(np.array([[1.0, 2.0]]), 2)
    assert M.shape == (1, 6)
    assert np.allclose(M, [[1.0, 2.0, 0.0, 0.0, 0.0, 0.0]])


def test_solve_uio_gain_constraint_and_stability(design_ex1, design_ex2):
    for design in (design_ex1, design_ex2):
        dec, uio = design.dec, design.uio
        M = gain_target(dec.B1p, uio.l)
        res = np.linalg.norm(uio.F @ uio.Gl - M)
        assert res <= GAIN_RESIDUAL_TOL * (1.0 + spectral_norm(dec.B1p))
        assert np.max(np.linalg.eigvals(uio.E).real) < 0.0
        # E must equal A1 - F Ol by construction
        assert np.allclose(uio.E, dec.A1 - uio.F @ uio.Ol, atol=1e-10)


def test_example2_exact_gain(design_ex2):
    # scalar block dx1 = 2 x1 with y stack (y, ydot): pole at -3 forces
    # E = 2 - F [1, 2]^T... the synthesized values are exactly F = [3, 1],
    # E = [-3]
    uio = design_ex2.uio
    assert np.allclose(uio.F, np.array([[3.0, 1.0]]), atol=1e-9)
    assert np.allclose(uio.E, np.array([[-3.0]]), atol=1e-9)


def test_step_uio_matches_augmented_exponential(design_ex2):
    uio = design_ex2.uio
    rng = np.random.default_rng(1)
    x1 = rng.standard_normal(uio.E.shape[0])
    z = rng.standard_normal(uio.F.shape[1])
    h = 0.037
    out = step_uio(uio, x1, z, h)
    n = uio.E.shape[0]
    m = uio.F.shape[1]
    M = np.zeros((n + m, n + m))
    M[:n, :n] = uio.E * h
    M[:n, n:] = uio.F * h
    ref = (expm(M) @ np.concatenate([x1, z]))[:n]
    assert np.allclose(out, ref, rtol=1e-10, atol=1e-12)


def test_derivative_error_envelope_formula():
    p = ErrorBoundParams(K=2.0, a=0.5, eps=0.1, delta=0.3, zbar0=1.0,
                        l=2, F_norm=1.0, init_norm=0.0, n_y=1)
    t, k, z0 = 0.7, 1, 0.4
    steady = 0.1 ** (2 - 1) * 0.3
    transient = 2.0 * np.sqrt(3.0) / 0.1 * z0 - steady
    ref = steady + transient * np.exp(-0.5 * t / 0.1)
    assert derivative_error_envelope(p, k, z0, t) == pytest.approx(ref,
                                                                   rel=1e-12)
    with pytest.raises(InvalidParameterError):
        derivative_error_envelope(p, 3, z0, t)


def _scalar_params(delta=0.2, zbar0=0.5, K=1.5, a=0.6, eps=0.05, l=1,
                   F_norm=2.0, init_norm=0.3, n_y=1):
    return ErrorBoundParams(K=K, a=a, eps=eps, delta=delta, zbar0=zbar0,
                            l=l, F_norm=F_norm, init_norm=init_norm, n_y=n_y)


@pytest.mark.parametrize("grid_step", [0.05, 0.0050001, 0.0123])
def test_eps1_scalar_closed_form(grid_step):
    """Against the analytic value for E = [-b] at every output node, also
    on grids that the default cell size does not divide:

    g(t) = e^{-bt}, I1 = (1 - e^{-bt})/b,
    I2 = (e^{-bt} - e^{-rt})/(r - b) with r = a/eps.
    """
    p = _scalar_params()
    b = 3.0
    E = np.array([[-b]])
    r = p.a / p.eps
    coef = p.K * np.sqrt(p.l + 1.0) / p.eps ** p.l * p.zbar0 \
        - p.eps ** p.l * p.delta
    scale = p.F_norm * np.sqrt(p.n_y * (p.l + 1.0))
    ev = Epsilon1Evaluator(p, E, grid_step, 2.0)
    t, vals = ev.grid(ev.ts[-1])
    I1 = (1.0 - np.exp(-b * t)) / b
    I2 = (np.exp(-b * t) - np.exp(-r * t)) / (r - b)
    ref = np.exp(-b * t) * p.init_norm + scale * (p.delta * I1 + coef * I2)
    assert np.allclose(vals, ref, rtol=1e-8, atol=0.0)


def test_cell_weights_integrate_quadratics_exactly():
    """w(0) is Simpson's rule; for r > 0 the weights integrate 1, u and u^2
    against e^{-r(H-u)} on [0, H] as the closed form does."""
    mpmath = pytest.importorskip("mpmath")
    H = 0.005
    assert np.allclose(_cell_weights(0.0, H), H / 6.0 * np.array([1, 4, 1]),
                       rtol=1e-15, atol=0.0)
    for r in (1e-8, 1.0, 90.0, 1e4):
        w = _cell_weights(r, H)
        for k in range(3):
            nodes = np.array([0.0, H / 2, H]) ** k
            with mpmath.workdps(40):
                exact = float(mpmath.quad(
                    lambda u: u ** k * mpmath.exp(-r * (H - u)), [0, H]))
            assert float(w @ nodes) == pytest.approx(exact, rel=1e-14)


def test_eps1_grid_independence():
    """Values at shared times must not depend on the output spacing."""
    p = _scalar_params()
    E = np.array([[-2.0, 1.0], [0.0, -3.0]])
    e1 = Epsilon1Evaluator(p, E, 0.1, 2.0)
    e2 = Epsilon1Evaluator(p, E, 0.02, 2.0)
    e3 = Epsilon1Evaluator(p, E, 0.005, 2.0)
    for t in (0.1, 0.5, 1.0, 1.7, 2.0):
        v1, v2, v3 = e1.at(t), e2.at(t), e3.at(t)
        assert v2 == pytest.approx(v1, rel=1e-11)
        assert v3 == pytest.approx(v1, rel=1e-11)


def test_eps1_initial_value():
    p = _scalar_params()
    ev = Epsilon1Evaluator(p, np.array([[-1.0]]), 0.1, 1.0)
    assert ev.at(0.0) == pytest.approx(p.init_norm, rel=1e-12)


def test_eps1_off_grid_time_raises():
    p = _scalar_params()
    ev = Epsilon1Evaluator(p, np.array([[-1.0]]), 0.1, 1.0)
    with pytest.raises(InvalidParameterError):
        ev.at(0.0501)


def test_eps1_uniform_bounds_bracket_grid():
    p = _scalar_params()
    E = np.array([[-3.0]])
    lo, hi = epsilon1_uniform_bounds(p, E, 2.0, grid_step=0.05)
    ev = Epsilon1Evaluator(p, E, 0.05, 2.0)
    _, vals = ev.grid(2.0)
    assert lo <= np.min(vals) + 1e-12
    assert hi >= np.max(vals) - 1e-12
    # the asymptote delta * ||F|| sqrt(n_y(l+1)) * int ||e^{Es}|| ds is folded
    # into the supremum
    limit = p.delta * p.F_norm * np.sqrt(p.n_y * (p.l + 1.0)) / 3.0
    assert hi >= limit * (1.0 - 1e-6)


def test_psi_recoverable(design_ex2):
    """eps1 must follow the published decomposition
    eps1(t) = ||e^{Et}|| init_norm + ||F|| sqrt(n_y (l+1)) Psi(t), where
    Psi does not depend on init_norm."""
    from dataclasses import replace
    design = design_ex2
    p = design.err
    ev = Epsilon1Evaluator(p, design.uio.E, 0.1, 1.0)
    ev0 = Epsilon1Evaluator(replace(p, init_norm=0.0), design.uio.E, 0.1, 1.0)
    for t in (0.0, 0.5, 1.0):
        lead = np.linalg.norm(expm(design.uio.E * t), 2) * p.init_norm
        assert ev.at(t) == pytest.approx(lead + ev0.at(t), rel=1e-6)


def test_step_uio_discretization_belongs_to_its_design():
    """A new design must not step with the discretization of a collected
    one, even when it is allocated at that design's address."""
    x1, z = np.zeros(1), np.ones(1)
    for i in range(50):
        E, F = np.array([[-1.0 - i]]), np.array([[1.0 + i]])
        des = UioDesign(l=0, Ol=np.ones((1, 1)), Gl=np.ones((1, 1)), F=F, E=E)
        assert np.array_equal(step_uio(des, x1, z, 0.1), zoh(E, F, 0.1)[1] @ z)
        del des
        gc.collect()


def test_build_design_builds_one_eps1_evaluator(cfg_mixed, monkeypatch):
    built = []
    init = Epsilon1Evaluator.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Epsilon1Evaluator, "__init__", counting_init)
    design = build_design(cfg_mixed)
    assert len(built) == 1
    monkeypatch.undo()
    bounds = epsilon1_uniform_bounds(
        design.err, design.uio.E, cfg_mixed.horizon,
        grid_step=cfg_mixed.dt / cfg_mixed.quad_substeps,
        eps1_floor=cfg_mixed.eps1_floor)
    assert (design.eps1_lo, design.eps1_hi) == bounds


# -- vectorized eps1 against the node-by-node loop -------------------------

def _loop_eps1(ev):
    """Reference: the per-node scalar evaluation of eps1 on ``ev.ts``, with
    ||e^{Es}|| the piecewise quadratic through the half-cell samples
    ``ev.gh`` and each piece integrated by its exponential moments."""
    h2 = 0.5 * ev.h_int
    n_cells = (ev.gh.size - 1) // 2
    cum1 = np.concatenate([[0.0], np.cumsum(
        (h2 / 3.0) * (ev.gh[0:-2:2] + 4.0 * ev.gh[1:-1:2] + ev.gh[2::2]))])

    def coeffs(j):
        g0, g1, g2 = ev.gh[2 * j], ev.gh[2 * j + 1], ev.gh[2 * j + 2]
        return g1, 0.5 * (g2 - g0), 0.5 * (g2 - 2.0 * g1 + g0)

    def g_at(t):
        j = min(int(t / ev.h_int), n_cells - 1)
        A, B, C = coeffs(j)
        w = (t - (j + 0.5) * ev.h_int) / (0.5 * ev.h_int)
        return A + B * w + C * w * w

    def plain_piece(j, a, b):
        A, B, C = coeffs(j)
        mid = (j + 0.5) * ev.h_int
        wa, wb = (a - mid) / h2, (b - mid) / h2
        return h2 * (A * (wb - wa) + B * (wb ** 2 - wa ** 2) / 2.0
                     + C * (wb ** 3 - wa ** 3) / 3.0)

    def kernel_piece(j, a, b, T, r):
        A, B, C = coeffs(j)
        mid = (j + 0.5) * ev.h_int
        v1 = mid - T
        c2 = C / h2 ** 2
        c1 = B / h2 - 2.0 * C * v1 / h2 ** 2
        c0 = A - B * v1 / h2 + C * v1 ** 2 / h2 ** 2
        va, vb = a - T, b - T
        d = r * (vb - va)
        if d < 1e-3:
            vs = np.linspace(va, vb, 5)
            q = c0 + c1 * vs + c2 * vs ** 2
            f = q * np.exp(r * vs)
            return (vb - va) / 12.0 * (f[0] + 4.0 * f[1] + 2.0 * f[2]
                                       + 4.0 * f[3] + f[4])
        e_a, e_b = np.exp(r * va), np.exp(r * vb)
        m0 = e_a * np.expm1(d) / r
        m1 = (vb * e_b - va * e_a - m0) / r
        m2 = (vb ** 2 * e_b - va ** 2 * e_a - 2.0 * m1) / r
        return c0 * m0 + c1 * m1 + c2 * m2

    def i1(t):
        j = min(int(t / ev.h_int + 1e-12), n_cells)
        out = cum1[j]
        left = j * ev.h_int
        if t > left + 1e-15 and j < n_cells:
            out += plain_piece(j, left, t)
        return float(out)

    def i2_increment(t0, t1, r):
        out = 0.0
        j = int(t0 / ev.h_int + 1e-12)
        u = t0
        while u < t1 - 1e-15 and j < n_cells:
            right = min((j + 1) * ev.h_int, t1)
            if right > u + 1e-15:
                out += kernel_piece(j, u, right, t1, r)
            u = right
            j += 1
        return out

    p = ev.params
    r = p.a / p.eps
    coef = (p.K * np.sqrt(p.l + 1.0) / p.eps ** p.l) * p.zbar0 \
        - p.eps ** p.l * p.delta
    scale = p.F_norm * np.sqrt(p.n_y * (p.l + 1.0))
    vals = np.empty(ev.ts.size)
    i2 = 0.0
    for m, t in enumerate(ev.ts):
        if m:
            i2 = np.exp(-r * (t - ev.ts[m - 1])) * i2 \
                + i2_increment(ev.ts[m - 1], t, r)
        psi = p.delta * i1(t) + coef * i2
        vals[m] = g_at(t) * p.init_norm + scale * psi
    return vals


@pytest.mark.parametrize("E, grid_step, horizon, eps", [
    # ten cells per output step
    (np.array([[-3.0]]), 0.05, 2.0, 0.05),
    # fast E: five cells of 0.00246 per output step, finer than the default
    (np.array([[-40.0, 5.0], [0.0, -25.0]]), 0.0123, 1.5, 0.01),
])
def test_eps1_vectorized_equals_node_loop(E, grid_step, horizon, eps):
    ev = Epsilon1Evaluator(_scalar_params(eps=eps), E, grid_step, horizon)
    assert np.allclose(ev.grid(ev.ts[-1])[1], _loop_eps1(ev),
                       rtol=1e-13, atol=0.0)


def test_eps1_design_grid_equals_node_loop(design_ex1):
    cfg = design_ex1.cfg
    ev = Epsilon1Evaluator(design_ex1.err, design_ex1.uio.E,
                           cfg.dt / cfg.quad_substeps, cfg.horizon)
    assert np.allclose(ev.grid(ev.ts[-1])[1], _loop_eps1(ev),
                       rtol=1e-13, atol=0.0)
