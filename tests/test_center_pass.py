"""Oracle tests of the lifted center recurrence: the plant, the derivative
bank and the unknown-input observer stepped node by node with their public
one-step functions, against ``estimate`` on one run and on a batch."""

import numpy as np
import pytest

import smobserver.hgo as hgo
import smobserver.pipeline as pipeline
import smobserver.uio as uio
from smobserver.ellipsoid import Ellipsoid
from smobserver.hgo import assemble_z_hat, initial_state, step_hgo
from smobserver.pipeline import (build_design, estimate,
                                 monte_carlo_containment, run_algorithm1,
                                 shape_schedule, simulate_plant)
from smobserver.uio import step_uio

#: agreement asked of the lifted pass, relative to each block's maximum
RTOL = 1e-10


def node_by_node(design, x0, w_fn):
    """Reference centers of one run: the plant on the fine grid, then the
    bank and the observer one fine node at a time.

    Returns the plant state at every sample time, the output at every
    sample time after t = 0, the observer on every quad node, and
    eps1 - ||x1 - x1hat|| on every quad node after t = 0.
    """
    cfg, dec = design.cfg, design.dec
    sys, n1, h = dec.system, dec.n1, cfg.h_fine
    stride = cfg.n_fine // cfg.quad_substeps
    ts, xs = simulate_plant(sys, x0, w_fn, cfg.dt, cfg.n_fine, cfg.horizon)
    ys = xs @ sys.C.T + np.asarray(w_fn(ts)) @ sys.D.T
    st = initial_state(design.hgo_cfg, ys[0])
    x1hat = (dec.P1 @ cfg.xhat0)[:n1]
    x1hat_q, gaps = [x1hat], []
    for i in range(ts.size - 1):
        z = assemble_z_hat(design.hgo_cfg, st)
        x1hat = step_uio(design.uio, x1hat, z, h)
        st = step_hgo(design.hgo_cfg, st, ys[i], h)
        if (i + 1) % stride == 0:
            x1hat_q.append(x1hat)
            x1_true = (dec.P1 @ xs[i + 1])[:n1]
            gaps.append(design.eps1_grid[len(gaps) + 1]
                        - np.linalg.norm(x1_true - x1hat))
    samples = slice(0, None, cfg.n_fine)
    return xs[samples], ys[samples][1:], np.array(x1hat_q), np.array(gaps)


def lifted(design, X0, w_family):
    """The centers :func:`estimate` yields, in the layout of
    :func:`node_by_node`, with a trailing run axis."""
    n_q = design.cfg.quad_substeps
    xs, ys, x1hat_q, gaps = [], [], [], []
    for step in estimate(design, X0, w_family, shape_schedule(design)):
        xs.append(step.x)
        gaps.append(step.eps1_gap)
        if step.k:
            assert step.x1hat_q.shape[0] == n_q + 1
            ys.append(step.y)
            x1hat_q.append(step.x1hat_q[1:])
        else:
            x1hat_q.append(step.x1hat_q)
    return (np.array(xs), np.array(ys), np.concatenate(x1hat_q),
            np.concatenate(gaps))


def assert_blocks_close(ref, got):
    for name, r, g in zip(("x", "y", "x1hat", "eps1 gap"), ref, got):
        assert r.shape == g.shape, name
        scale = np.max(np.abs(r))
        if name == "eps1 gap":
            # the gap subtracts ||x1 - x1hat|| from eps1: judge its error
            # against the size of the states it is made of
            scale = np.max(np.abs(ref[2]))
        assert np.max(np.abs(r - g)) <= RTOL * scale, name


def scenarios(cfg_mixed, cfg_ex1, cfg_ex2):
    return (cfg_mixed, cfg_ex1.with_overrides(horizon=3.0),
            cfg_ex2.with_overrides(horizon=3.0))


def test_center_pass_matches_node_by_node_one_run(cfg_mixed, cfg_ex1,
                                                  cfg_ex2):
    for cfg in scenarios(cfg_mixed, cfg_ex1, cfg_ex2):
        design = build_design(cfg)
        ref = node_by_node(design, cfg.xhat0, cfg.w_true)
        got = lifted(design, cfg.xhat0[:, None],
                     lambda ts: cfg.w_true(np.asarray(ts))[:, :, None])
        assert_blocks_close(ref, tuple(a[..., 0] for a in got))


def test_center_pass_matches_node_by_node_batch(cfg_mixed, cfg_ex1, cfg_ex2):
    """Three runs with distinct initial states and inputs: every column of
    the batch equals its own node-by-node run."""
    runs = 3
    for cfg in scenarios(cfg_mixed, cfg_ex1, cfg_ex2):
        design = build_design(cfg)
        rng = np.random.default_rng(11)
        X0 = Ellipsoid(cfg.xhat0, cfg.K0).sample(rng, runs).T
        family = pipeline._sample_input_family(rng, cfg, runs)
        got = lifted(design, X0, family)
        assert len({float(v) for v in X0[0]}) == runs
        for r in range(runs):
            ref = node_by_node(design, X0[:, r],
                               lambda ts, r=r: family(ts)[:, :, r])
            assert_blocks_close(ref, tuple(a[..., r] for a in got))


def test_estimate_steps_no_fine_node(monkeypatch, cfg_mixed):
    """The estimate and the Monte Carlo sweep take their centers from the
    lifted pass only: the one-step functions are never called."""
    def forbidden(*args, **kwargs):
        raise AssertionError("per-fine-node step called")

    monkeypatch.setattr(hgo, "step_hgo", forbidden)
    monkeypatch.setattr(uio, "step_uio", forbidden)
    monkeypatch.setattr(pipeline, "simulate_plant", forbidden)
    cfg = cfg_mixed.with_overrides(horizon=0.5)
    assert run_algorithm1(cfg).ok
    assert monte_carlo_containment(cfg, runs=2, seed=0)["runs"] == 2


def family_cfg(cfg, kind):
    """``cfg`` with its constant K_w, or with a time-varying diagonal one."""
    from smobserver.generators import ShapeGenerator, SignalGenerator, Term
    if kind == "const":
        return cfg
    return cfg.with_overrides(Kw=ShapeGenerator(
        kind="diag", entries=SignalGenerator(components=(
            (Term(kind="const", value=3.0),
             Term(kind="sin", amp=0.5, freq=0.3)),
            (Term(kind="const", value=5.0),)))))


def broadcast_family(fam, cfg, ts):
    """The plain (T, terms, n_w, runs) broadcast of
    c_w + L sum_j a_j u_j sin(w_j t + p_j)."""
    s = (fam.amps[None, :, None, :]
         * np.sin(fam.freqs[None, :, None, :] * ts[:, None, None, None]
                  + fam.phases[None, :, None, :])
         * fam.units[None, :, :, :]).sum(axis=1)
    if cfg.Kw.kind == "const":
        scaled = np.einsum("ab,tbr->tar", np.linalg.cholesky(cfg.Kw.matrix),
                           s)
    else:
        diag = np.sqrt(np.stack([np.diag(M) for M in cfg.Kw(ts)]))
        scaled = diag[:, :, None] * s
    return cfg.cw(ts)[:, :, None] + scaled


def center_pass_calls(design, fam):
    """(ts, fam(ts)) for every call :func:`estimate` makes over the
    design's whole horizon, in its order."""
    calls = []

    def record(ts):
        calls.append((np.asarray(ts), fam(ts)))
        return calls[-1][1]

    X0 = np.tile(design.cfg.xhat0[:, None], (1, fam.amps.shape[1]))
    for _ in estimate(design, X0, record, shape_schedule(design)):
        pass
    return calls


@pytest.mark.parametrize("kind", ["const", "diag"])
def test_input_family_matches_broadcast_formula(cfg_ex1, design_ex1,
                                                design_ex2, kind):
    """The family, anchored per call and expanded by angle addition, agrees
    with the broadcast sine formula to 1e-13 of the samples' size: on a
    short grid, and on every interval the estimator asks for over the
    full example1 and example2 horizons (t up to 50 s, where the angles
    and so their rounding errors are largest)."""
    cfg = family_cfg(cfg_ex1, kind)
    fam = pipeline._sample_input_family(np.random.default_rng(4), cfg, 7)
    ts = 0.01 * np.arange(31)
    calls = [(ts, fam(ts))]
    for design in (design_ex1, design_ex2):
        calls += center_pass_calls(design, fam)
    assert calls[-1][0][0] == pytest.approx(design_ex2.cfg.horizon - 0.1)
    for ts, w in calls:
        ref = broadcast_family(fam, cfg, ts)
        assert np.max(np.abs(w - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("kind", ["const", "diag"])
def test_input_family_is_admissible(cfg_ex1, design_ex2, kind):
    """Every sample the estimator draws lies in the input's bounding
    ellipsoid: (w - c_w)^T K_w^-1 (w - c_w) <= 1."""
    cfg = family_cfg(cfg_ex1, kind)
    fam = pipeline._sample_input_family(np.random.default_rng(6), cfg, 9)
    for ts, w in center_pass_calls(design_ex2, fam):
        dev = w - cfg.cw(ts)[:, :, None]
        q = np.einsum("tar,tab,tbr->tr", dev, np.linalg.inv(cfg.Kw(ts)), dev)
        assert np.max(q) <= 1.0 + 1e-12


def test_sweep_builds_offset_table_once(monkeypatch, cfg_mixed):
    """The estimator asks for the same offsets on every interval, so a
    sweep builds the family's table once, for interval 1."""
    build = pipeline._InputFamily._build_table
    builds = []

    def counting(self, tau):
        builds.append(tau.size)
        build(self, tau)

    monkeypatch.setattr(pipeline._InputFamily, "_build_table", counting)
    cfg = cfg_mixed.with_overrides(horizon=2.0)
    assert monte_carlo_containment(cfg, runs=4, seed=3)["runs"] == 4
    assert builds == [2 * cfg.n_fine + 1]
