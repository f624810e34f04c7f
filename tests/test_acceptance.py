"""Acceptance suite: the nine end-to-end correctness criteria.

Each test prints an explicit PASS/FAIL line with the measured quantity and
its stated tolerance, then asserts.  Criteria needing runs with active
measurement updates use the mixed scenario from conftest, since neither
built-in benchmark ever engages the update (the first has an empty weak
block, the second an uninformative output).
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from smobserver.cli import main as cli_main
from smobserver.decomposition import (LtiSystem, build_decomposition,
                                      select_derivative_order)
from smobserver.errors import ObserverError
from smobserver.hgo import (decay_constants, design_hgo, initial_state,
                            step_hgo)
from smobserver.numerics import expm, null_basis, range_basis, spectral_norm
from smobserver.pipeline import monte_carlo_containment, run_algorithm1
from smobserver.uio import (ErrorBoundParams, GAIN_RESIDUAL_TOL,
                            derivative_error_envelope, gain_target,
                            solve_uio_gain)
from smobserver.weak import (check_shape, optimize_beta, shape_recursion,
                             update_information)
from oracles import woodbury_shape


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE CRITERION {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


@pytest.fixture(scope="module")
def mc_ex1(cfg_ex1):
    """Timed 200-run Monte Carlo sweep over example 1 (shared by 1 and 2)."""
    t0 = time.perf_counter()
    out = monte_carlo_containment(cfg_ex1, runs=200, seed=cfg_ex1.seed)
    out["elapsed"] = time.perf_counter() - t0
    return out


# -- criterion 1: guaranteed containment on the first benchmark -------------

def test_criterion_1_containment_rate(mc_ex1, cfg_ex1):
    assert cfg_ex1.horizon == 30.0 and cfg_ex1.dt == 0.1
    rate = mc_ex1["containment_rate"]
    elapsed = mc_ex1["elapsed"]
    ok = (rate == 1.0) and (elapsed < 120.0)
    assert _verdict(
        1, ok,
        f"200 runs, containment rate {rate} (required exactly 1.0 at "
        f"membership slack 1e-9; worst quadratic form "
        f"{mc_ex1['worst_q']:.12f}), elapsed {elapsed:.1f} s < 120 s")


# -- criterion 2: the analytic error envelopes hold -------------------------

def test_criterion_2_envelopes(mc_ex1):
    # (a) ||x1 - x1hat|| <= eps1(t) at every checked grid time of every run
    ok_eps1 = mc_ex1["eps1_violations"] == 0 and mc_ex1["eps1_margin"] > 0.0

    # (b) the derivative-bank envelope dominates the measured estimation
    # error for test signals y = sin t at every order l <= 2
    worst_ratio = 0.0
    for l in (0, 1, 2):
        cfg = design_hgo(l, 0.01, 1.0, n_y=1)
        K, a = decay_constants(cfg)
        delta = 1.0 * K * cfg.eps / a  # all derivatives of sin bounded by 1
        st = initial_state(cfg, np.array([0.0]))
        z0_true = np.array([np.sin(j * np.pi / 2.0) for j in range(l + 1)])
        z0_norm = float(np.linalg.norm(st.zhat[:, 0] - z0_true))
        p = ErrorBoundParams(K=K, a=a, eps=cfg.eps, delta=delta,
                             zbar0=z0_norm, l=l, F_norm=0.0, init_norm=0.0,
                             n_y=1)
        h = 1e-4
        n = int(3.0 / h)
        for j in range(n):
            st = step_hgo(cfg, st, np.array([np.sin(j * h)]), h)
            t = (j + 1) * h
            truth = np.array([np.sin(t + k * np.pi / 2.0)
                              for k in range(l + 1)])
            err = np.abs(st.zhat[:, 0] - truth)
            env = np.array([derivative_error_envelope(p, k, z0_norm, t)
                            for k in range(l + 1)])
            worst_ratio = max(worst_ratio, float(np.max(err / env)))
    ok_hgo = worst_ratio <= 1.0
    ok = ok_eps1 and ok_hgo
    assert _verdict(
        2, ok,
        f"eps1 violations {mc_ex1['eps1_violations']} (required 0, margin "
        f"{mc_ex1['eps1_margin']:.3e}); derivative-bank worst error/envelope "
        f"ratio {worst_ratio:.4f} <= 1 for test signals at orders l <= 2")


# -- criterion 3: certified boundedness on the second benchmark -------------

def test_criterion_3_shape_bounds(run_ex2, cfg_ex2):
    rep = run_ex2.report
    assert cfg_ex2.n_steps == 500
    # declared constants
    ok_const = (rep.alpha_lo == 0.1 and rep.alpha_hi == 0.9
                and rep.beta_lo == 0.0 and rep.beta_hi == 0.0)
    ok_fbar = rep.f_bar < 1.0 - rep.beta_hi

    lam_lo_ok = True
    lam_hi_ok = True
    for k, ws in enumerate(run_ex2.weak_states):
        lam = np.linalg.eigvalsh(ws.P2hat)
        lam_lo_ok &= lam[0] >= rep.p2_lo * (1.0 - 1e-9)
        lam_hi_ok &= lam[-1] <= rep.p2_hi_seq[k] * (1.0 + 1e-9)

    sandwich_ok = True
    for K in run_ex2.schedule.shape:
        scale = float(np.trace(rep.P_hi))
        sandwich_ok &= np.linalg.eigvalsh(K - rep.P_lo)[0] >= -1e-9 * scale
        sandwich_ok &= np.linalg.eigvalsh(rep.P_hi - K)[0] >= -1e-9 * scale

    trP = np.array([r.trP for r in run_ex2.traces])
    plateau_ok = True
    worst_exceed = 0.0
    for k in range(51, trP.shape[0]):
        exceed = trP[k] / np.max(trP[:k]) - 1.0
        worst_exceed = max(worst_exceed, exceed)
        plateau_ok &= exceed <= 0.05

    ok = ok_const and ok_fbar and lam_lo_ok and lam_hi_ok \
        and sandwich_ok and plateau_ok
    assert _verdict(
        3, ok,
        f"500 steps: lambda_min >= p2_lo {rep.p2_lo:.4e} ({lam_lo_ok}), "
        f"lambda_max <= per-step bound ({lam_hi_ok}); f_bar {rep.f_bar:.4f} "
        f"< 1 - beta_hi {1.0 - rep.beta_hi} with declared constants "
        f"({ok_const}); uniform matrix bounds sandwich every fused shape "
        f"({sandwich_ok}); trace exceeds its running max after step 50 by "
        f"at most {100.0 * worst_exceed:.3g}% (limit 5%)")


# -- criterion 4: the per-step parameter selectors are optimal --------------

def test_criterion_4a_alpha_closed_form():
    rng = np.random.default_rng(41)
    grid = np.arange(1e-4, 1.0, 1e-4)
    worst_gap = -np.inf
    for _ in range(100):
        n2 = int(rng.integers(1, 5))
        A4 = rng.standard_normal((n2, n2))
        M = rng.standard_normal((n2, n2))
        M2k = M @ M.T + 0.05 * np.eye(n2)
        Pm = rng.standard_normal((n2, n2))
        P2 = Pm @ Pm.T + 0.05 * np.eye(n2)
        dt = float(rng.uniform(0.02, 0.5))
        Ed = expm(A4 * dt)
        alpha = shape_recursion(P2, Ed, dt * M2k[None], np.zeros(1, bool),
                                np.zeros((1, n2, n2)), np.zeros((1, 1, n2)))[0]
        a = float(alpha[0])
        tp = float(np.trace(Ed @ P2 @ Ed.T))
        tm = float(np.trace(M2k))
        obj = tp / grid + dt * tm / (1.0 - grid)
        gap = (tp / a + dt * tm / (1.0 - a)) - float(np.min(obj))
        worst_gap = max(worst_gap, gap)
    ok = worst_gap <= 1e-8
    assert _verdict(
        4, ok,
        f"(a) mixing weight alpha: worst objective gap to the 1e-4-step "
        f"grid argmin over 100 random instances is {worst_gap:.3e} <= 1e-8")


def test_criterion_4b_beta_line_search():
    rng = np.random.default_rng(42)
    worst_dev = 0.0
    for _ in range(100):
        n2 = int(rng.integers(1, 5))
        n_y = int(rng.integers(1, 4))
        Pm = rng.standard_normal((n2, n2))
        P = Pm @ Pm.T + 0.1 * np.eye(n2)
        C2 = rng.standard_normal((n_y, n2))
        Gm = rng.standard_normal((n_y, n_y))
        Gk = Gm @ Gm.T + 0.1 * np.eye(n_y)
        info = update_information(SimpleNamespace(n2=n2, C2=C2), Gk)[0]
        b = optimize_beta(check_shape(P), info)[0]
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
        worst_dev = max(worst_dev, abs(b - b_grid))
    ok = worst_dev <= 1e-4
    assert _verdict(
        4, ok,
        f"(b) mixing weight beta: worst deviation of optimize_beta from "
        f"the dense-grid argmin over 100 random SPD instances (n2 <= 4) is "
        f"{worst_dev:.3e} <= 1e-4")


def test_criterion_4c_stacking_gain():
    rng = np.random.default_rng(43)
    grid = 1.0 + np.logspace(-4, 4, 2000)
    worst_rel = -np.inf
    for _ in range(100):
        t1 = float(rng.uniform(0.01, 100.0))
        t2 = float(rng.uniform(0.01, 100.0))
        g = np.sqrt(t2 / t1) + 1.0
        J_star = g * t1 + g / (g - 1.0) * t2
        J_grid = grid * t1 + grid / (grid - 1.0) * t2
        worst_rel = max(worst_rel,
                        float((J_star - np.min(J_grid)) / np.min(J_grid)))
    ok = worst_rel <= 1e-3
    assert _verdict(
        4, ok,
        f"(c) stacking gain: trace objective at the closed-form gain beats "
        f"every grid gain; worst relative excess over 100 random instances "
        f"is {worst_rel:.3e} <= 1e-3")


# -- criterion 5: the structural split is exact -----------------------------

def test_criterion_5_decomposition(cfg_ex1, cfg_ex2, design_ex2):
    dec2 = design_ex2.dec
    blocks_ok = (dec2.n1 == 1
                 and np.allclose(np.linalg.eigvals(dec2.A1), [2.0],
                                 atol=1e-9)
                 and np.allclose(sorted(np.linalg.eigvals(dec2.A4).real),
                                 [-20.0, -17.0], atol=1e-9))

    rng = np.random.default_rng(51)
    systems = [cfg_ex1.system, cfg_ex2.system]
    for _ in range(100):
        n = int(rng.integers(2, 7))
        n_w = int(rng.integers(1, 3))
        n_y = int(rng.integers(1, 4))
        systems.append(LtiSystem(rng.standard_normal((n, n)),
                                 rng.standard_normal((n, n_w)),
                                 rng.standard_normal((n_y, n)),
                                 rng.standard_normal((n_y, n_w))))

    worst_rt = 0.0
    recursion_ok = True
    for sys in systems:
        dec = build_decomposition(sys)
        for _ in range(5):
            x = rng.standard_normal(sys.n_x)
            xp = dec.P1 @ x
            back = dec.P1.T @ np.concatenate([xp[:dec.n1], xp[dec.n1:]])
            rel = np.linalg.norm(back - x) \
                / max(1.0, np.linalg.norm(x))
            worst_rt = max(worst_rt, float(rel))
        # independent recursion: iterates nest, dimensions strictly drop
        # until the fixed point, reached after at most n refinements
        A, B, C, D = sys.A, sys.B, sys.C, sys.D
        n = sys.n_x
        V = np.eye(n)
        stabilized = False
        for _ in range(n + 1):
            top = np.hstack([A, B, -V])
            bot = np.hstack([C, D, np.zeros((C.shape[0], V.shape[1]))])
            N = null_basis(np.vstack([top, bot]))
            Vn = range_basis(N[:n, :], scale=1.0)
            recursion_ok &= bool(
                np.linalg.norm(V @ (V.T @ Vn) - Vn) < 1e-9)  # nesting
            if Vn.shape[1] == V.shape[1]:
                stabilized = True
                break
            V = Vn
        recursion_ok &= stabilized
        recursion_ok &= V.shape[1] == dec.n2

    rt_ok = worst_rt <= 1e-10
    ok = blocks_ok and rt_ok and recursion_ok
    assert _verdict(
        5, ok,
        f"benchmark split n1=1, eig(A1)={{2}}, eig(A4)={{-17,-20}} "
        f"({blocks_ok}); coordinate round-trip worst relative error "
        f"{worst_rt:.3e} <= 1e-10 over both benchmarks and 100 random "
        f"systems; subspace recursion monotone and fixed within n steps "
        f"({recursion_ok})")


# -- criterion 6: observer gain synthesis -----------------------------------

def test_criterion_6_gain_synthesis(design_ex1, design_ex2, cfg_mixed):
    uio2 = design_ex2.uio
    exact_ok = (np.allclose(uio2.F, [[3.0, 1.0]], atol=1e-9)
                and np.allclose(uio2.E, [[-3.0]], atol=1e-9))

    designs = [(design_ex1.dec, design_ex1.uio),
               (design_ex2.dec, design_ex2.uio)]
    dec_m = build_decomposition(cfg_mixed.system)
    rep_m = select_derivative_order(dec_m)
    designs.append((dec_m, solve_uio_gain(dec_m.A1, dec_m.C1, dec_m.B1p,
                                          dec_m.D1p, rep_m.l,
                                          cfg_mixed.uio_poles)))
    rng = np.random.default_rng(61)
    attempts = 0
    while len(designs) < 23 and attempts < 400:
        attempts += 1
        n = int(rng.integers(2, 6))
        n_y = int(rng.integers(2, 4))
        sys = LtiSystem(rng.standard_normal((n, n)),
                        rng.standard_normal((n, 1)),
                        rng.standard_normal((n_y, n)),
                        rng.standard_normal((n_y, 1)))
        try:
            dec = build_decomposition(sys)
            if dec.n1 == 0:
                continue
            rep = select_derivative_order(dec)
            poles = tuple(-1.5 - 0.5 * i for i in range(dec.n1))
            uio = solve_uio_gain(dec.A1, dec.C1, dec.B1p, dec.D1p, rep.l,
                                 poles)
            designs.append((dec, uio))
        except ObserverError:
            continue

    worst_res = 0.0
    for dec, uio in designs:
        M = gain_target(dec.B1p, uio.l)
        res = float(np.linalg.norm(uio.F @ uio.Gl - M)) \
            / (1.0 + spectral_norm(dec.B1p))
        worst_res = max(worst_res, res)
    res_ok = worst_res <= 1e-8 and worst_res <= GAIN_RESIDUAL_TOL
    ok = exact_ok and res_ok
    assert _verdict(
        6, ok,
        f"benchmark gain exactly F=[3,1], E=[-3] at pole -3 ({exact_ok}); "
        f"scaled gain-constraint residual over {len(designs)} synthesized "
        f"designs at most {worst_res:.3e} <= 1e-8")


# -- criterion 7: the two update forms agree --------------------------------

def test_criterion_7_woodbury_equivalence(run_ex1, run_ex2, run_mixed,
                                          cfg_mixed):
    checked = 0
    worst_rel = 0.0
    dec = build_decomposition(cfg_mixed.system)
    for k, row in enumerate(run_mixed.traces):
        if k == 0 or row.skipped:
            continue
        beta = float(run_mixed.schedule.beta[k])
        P_pred = run_mixed.schedule.P2_pred[k]
        Gk = run_mixed.schedule.Gk[k]
        ref = woodbury_shape(P_pred, dec.C2, Gk, beta)
        got = run_mixed.weak_states[k].P2hat
        rel = float(np.linalg.norm(got - ref) / np.linalg.norm(ref))
        worst_rel = max(worst_rel, rel)
        checked += 1
    # the benchmarks never update: their contribution is vacuous by design
    vacuous = sum(1 for run in (run_ex1, run_ex2)
                  for r in run.traces if not r.skipped)
    ok = checked > 0 and vacuous == 0 and worst_rel <= 1e-9
    assert _verdict(
        7, ok,
        f"inverse-combination form vs gain-form update: worst relative "
        f"difference {worst_rel:.3e} <= 1e-9 over {checked} updates of the "
        f"mixed-scenario run (both benchmarks skip every update by design)")


# -- criterion 8: grid-refinement insensitivity -----------------------------

def test_criterion_8_substep_insensitivity(cfg_ex1, cfg_ex2, run_ex1,
                                           run_ex2):
    worst = 0.0
    for cfg, base in ((cfg_ex1, run_ex1), (cfg_ex2, run_ex2)):
        trP0 = np.array([r.trP for r in base.traces])
        for field in ("plant_substeps", "hgo_substeps", "quad_substeps"):
            doubled = cfg.with_overrides(
                **{field: 2 * getattr(cfg, field)})
            run = run_algorithm1(doubled, with_certificate=False)
            trP = np.array([r.trP for r in run.traces])
            rel = float(np.max(np.abs(trP - trP0) / trP0))
            worst = max(worst, rel)
    ok = worst < 1e-6
    assert _verdict(
        8, ok,
        f"doubling any substep count changes the shape-trace trajectory by "
        f"at most {worst:.3e} relative (< 1e-6) on both benchmarks")


# -- criterion 9: byte-determinism ------------------------------------------

def test_criterion_9_byte_identical_demo(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(["demo", "--example", "1", "--out", str(d1)]) == 0
    assert cli_main(["demo", "--example", "1", "--out", str(d2)]) == 0
    b1 = (d1 / "traces.csv").read_bytes()
    b2 = (d2 / "traces.csv").read_bytes()
    ok = b1 == b2 and len(b1) > 0
    assert _verdict(
        9, ok,
        f"two demo runs of benchmark 1 wrote byte-identical traces.csv "
        f"({len(b1)} bytes)")
