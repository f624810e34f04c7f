"""Oracle tests of the lifted center recurrence: the continuous plant /
derivative-bank / observer cascade stepped node by node with a Van Loan
step of its own, and advanced exactly with its input's exosystem, against
``estimate`` on one run and on a batch."""

import numpy as np
import pytest

import smobserver.hgo as hgo
import smobserver.pipeline as pipeline
import smobserver.uio as uio
from oracles import cascade, exosystem_centers, hold_step, \
    initial_cascade_state
from smobserver.ellipsoid import Ellipsoid
from smobserver.generators import SignalGenerator, SineBank, Term
from smobserver.pipeline import (build_design, estimate,
                                 monte_carlo_containment, run_algorithm1,
                                 shape_schedule)

#: agreement asked of the lifted pass, relative to each block's maximum
RTOL = 1e-10


def node_by_node(design, x0, w_fn):
    """Reference centers of one run: the cascade stepped one fine node at a
    time, its input quadratic through the node, half-node and next-node
    samples of ``w_fn``.

    Returns the plant state at every sample time, the output at every
    sample time after t = 0, the observer on every quad node, and
    eps1 - ||x1 - x1hat|| on every quad node after t = 0.
    """
    cfg, dec = design.cfg, design.dec
    sys, n, n1, h = dec.system, dec.system.n_x, dec.n1, cfg.h_fine
    stride = cfg.n_fine // cfg.quad_substeps
    ts = h * np.arange(cfg.n_steps * cfg.n_fine + 1)
    w = np.asarray(w_fn(ts), dtype=float)
    w_half = np.asarray(w_fn(ts[:-1] + 0.5 * h), dtype=float)
    Ad, G = hold_step(*cascade(design), h)
    s = [initial_cascade_state(design, x0, w[0])]
    for i in range(ts.size - 1):
        s.append(Ad @ s[-1] + G @ np.concatenate([w[i], w_half[i], w[i + 1]]))
    xs, quad = np.array(s)[:, :n], np.array(s)[::stride]
    x1hat_q = quad[:, -n1:]
    gaps = (design.eps1_grid[1:]
            - np.linalg.norm((quad[1:, :n] @ dec.P1.T)[:, :n1]
                             - x1hat_q[1:], axis=1))
    samples = slice(0, None, cfg.n_fine)
    ys = xs[samples] @ sys.C.T + w[samples] @ sys.D.T
    return xs[samples], ys[1:], x1hat_q, gaps


def lifted(design, X0, w_family):
    """The centers :func:`estimate` yields, in the layout of
    :func:`node_by_node`, with a trailing run axis."""
    n_q = design.cfg.quad_substeps
    first, *chunks = estimate(design, X0, w_family, shape_schedule(design))
    assert first.k == slice(0, 1) and first.x1hat_q.shape[:2] == (1, 1)
    assert first.eps1_gap.shape[:2] == (1, 0)
    for chunk in chunks:
        assert chunk.x1hat_q.shape[1] == n_q + 1
        assert np.array_equal(chunk.x1hat_q[1:, 0], chunk.x1hat_q[:-1, -1])
    chunks = [first] + chunks
    assert [c.k.start for c in chunks[1:]] == [c.k.stop for c in chunks[:-1]]

    def joined(name):
        return np.concatenate([getattr(c, name) for c in chunks])

    n1, runs = first.x1hat_q.shape[2:]
    x1hat_q = np.concatenate([first.x1hat_q[0]] + [
        c.x1hat_q[:, 1:].reshape(-1, n1, runs) for c in chunks[1:]])
    gaps = np.concatenate([c.eps1_gap.reshape(-1, runs) for c in chunks])
    return joined("x"), joined("y")[1:], x1hat_q, gaps


def assert_blocks_close(ref, got):
    for name, r, g in zip(("x", "y", "x1hat", "eps1 gap"), ref, got):
        assert r.shape == g.shape, name
        tol = RTOL * np.max(np.abs(r))
        if name == "eps1 gap":
            # the gap subtracts ||x1 - x1hat|| from eps1: judge its error
            # against the size of the states it is made of, plus the one
            # rounding of that subtraction at the gap's own magnitude
            # (eps1 reaches 1e8 on example1, where one ulp is 1.5e-8)
            tol = (RTOL * np.max(np.abs(ref[2]))
                   + np.spacing(np.max(np.abs(r))))
        assert np.max(np.abs(r - g)) <= tol, name


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


def test_lifted_centers_match_the_exact_exosystem_reference(cfg_mixed,
                                                           cfg_ex1, cfg_ex2):
    """The plant at the sample times and x1hat on every quad node are those
    of the continuous observer that eps1 bounds, driven by w_true itself
    (not by its samples), to 1e-8 of each block's maximum."""
    for cfg in scenarios(cfg_mixed, cfg_ex1, cfg_ex2):
        design = build_design(cfg)
        ref = exosystem_centers(design, cfg.xhat0, cfg.w_true)
        x, _, x1hat_q, _ = lifted(design, cfg.xhat0[:, None],
                                  cfg.w_true.sine_bank())
        for r, g in zip(ref, (x[..., 0], x1hat_q[..., 0])):
            assert r.shape == g.shape
            assert np.max(np.abs(r - g)) <= 1e-8 * np.max(np.abs(r))


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
    from smobserver.generators import ShapeGenerator
    if kind == "const":
        return cfg
    return cfg.with_overrides(Kw=ShapeGenerator(
        kind="diag", entries=SignalGenerator(components=(
            (Term(kind="const", value=3.0),
             Term(kind="sin", amp=0.5, freq=0.3)),
            (Term(kind="const", value=5.0),)))))


def broadcast_family(sines, cfg, ts):
    """The plain (T, terms, n_w, runs) broadcast of
    c_w + L sum_j a_j u_j sin(w_j t + p_j), with the gains a_j u_j, the
    frequencies and the phases of :func:`pipeline._draw_sines`."""
    s = (sines.gains.swapaxes(0, 1)[None]
         * np.sin(sines.freqs[None, :, None, :] * ts[:, None, None, None]
                  + sines.phases[None, :, None, :])).sum(axis=1)
    if cfg.Kw.kind == "const":
        scaled = np.einsum("ab,tbr->tar", np.linalg.cholesky(cfg.Kw.matrix),
                           s)
    else:
        diag = np.sqrt(np.stack([np.diag(M) for M in cfg.Kw(ts)]))
        scaled = diag[:, :, None] * s
    return cfg.cw(ts)[:, :, None] + scaled


def center_pass_calls(design, fam, runs):
    """(ts, fam(ts)) for every call :func:`estimate` makes over the
    design's whole horizon, in its order, with ``fam`` wrapped in a plain
    callable so that the estimate samples it."""
    calls = []

    def record(ts):
        calls.append((np.asarray(ts), fam(ts)))
        return calls[-1][1]

    X0 = np.tile(design.cfg.xhat0[:, None], (1, runs))
    for _ in estimate(design, X0, record, shape_schedule(design)):
        pass
    return calls


@pytest.mark.parametrize("kind", ["const", "diag"])
def test_input_family_matches_broadcast_formula(cfg_ex1, design_ex1,
                                                design_ex2, kind):
    """The family's samples (a sine bank's for a constant K_w) agree with
    the broadcast sine formula of its draw to 1e-13 of the samples' size:
    on a short grid, and on every interval the estimator asks for over the
    full example1 and example2 horizons (t up to 50 s, where the angles
    and so their rounding errors are largest)."""
    cfg = family_cfg(cfg_ex1, kind)
    fam = pipeline._sample_input_family(np.random.default_rng(4), cfg, 7)
    sines = pipeline._draw_sines(np.random.default_rng(4), cfg, 7)
    assert isinstance(fam, SineBank) == (kind == "const")
    ts = 0.01 * np.arange(31)
    calls = [(ts, fam(ts))]
    for design in (design_ex1, design_ex2):
        calls += center_pass_calls(design, fam, 7)
    assert np.max(calls[-1][0]) == pytest.approx(design_ex2.cfg.horizon)
    for ts, w in calls:
        ref = broadcast_family(sines, cfg, ts)
        assert np.max(np.abs(w - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("kind", ["const", "diag"])
def test_input_family_is_admissible(cfg_ex1, design_ex2, kind):
    """Every sample the estimator draws lies in the input's bounding
    ellipsoid: (w - c_w)^T K_w^-1 (w - c_w) <= 1."""
    cfg = family_cfg(cfg_ex1, kind)
    fam = pipeline._sample_input_family(np.random.default_rng(6), cfg, 9)
    for ts, w in center_pass_calls(design_ex2, fam, 9):
        dev = w - cfg.cw(ts)[:, :, None]
        q = np.einsum("tar,tab,tbr->tr", dev, np.linalg.inv(cfg.Kw(ts)), dev)
        assert np.max(q) <= 1.0 + 1e-12


def test_sweep_builds_offset_table_once(monkeypatch, cfg_mixed):
    """A constant-K_w sweep folds its input bank into the stride table once
    and never samples the input, so no per-interval sample table is
    built."""
    fold = pipeline._fold_bank
    builds = []

    def counting(lift, bank, h):
        builds.append(bank.freqs.shape)
        return fold(lift, bank, h)

    def forbidden(*args, **kwargs):
        raise AssertionError("input sampled by a constant-K_w sweep")

    monkeypatch.setattr(pipeline, "_fold_bank", counting)
    monkeypatch.setattr(pipeline, "_sampled_drive", forbidden)
    monkeypatch.setattr(SineBank, "__call__", forbidden)
    cfg = cfg_mixed.with_overrides(horizon=2.0)
    assert monte_carlo_containment(cfg, runs=4, seed=3)["runs"] == 4
    # one c_w term and mc_n_terms sines per run
    assert builds == [(1 + cfg.mc_n_terms, 4)]


def test_empty_bank_is_the_zero_input(cfg_mixed):
    """Signals with no terms fold to banks with no terms: the run and the
    sweep are the ones driven by zero samples, to 1e-10 of the largest
    center (the folded run advances each interval by the stacked powers of
    Mp, the sampled one stride by stride)."""
    zero = SignalGenerator(components=((),))
    cfg = cfg_mixed.with_overrides(horizon=1.0, cw=zero, w_true=zero,
                                   mc_n_terms=0)
    folded = run_algorithm1(cfg)
    sampled = run_algorithm1(cfg, w_fn=lambda ts: np.zeros((len(ts), 1)))
    for name in ("x_true", "xhat"):
        got, ref = (np.array([getattr(row, name) for row in run.traces])
                    for run in (folded, sampled))
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
    out = monte_carlo_containment(cfg, runs=2, seed=0, x0s=np.tile(
        cfg.xhat0[:, None], (1, 2)))
    assert out["per_run_worst_q"] == pytest.approx([sampled.worst_q] * 2,
                                                   rel=1e-10)


def bank_with_extra_terms(cfg, runs):
    """A Monte Carlo bank plus a c_w-like signal that holds a constant term
    and a two-term component."""
    extra = SignalGenerator(components=(
        (Term(kind="const", value=0.7),),
        (Term(kind="sin", amp=0.4, freq=1.3, phase=0.2),
         Term(kind="sin", amp=0.3, freq=0.6, phase=2.1))))
    fam = pipeline._sample_input_family(np.random.default_rng(8), cfg, runs)
    return fam + extra.sine_bank(runs)


def test_bank_drive_equals_lifted_samples(monkeypatch, cfg_ex1, design_ex1,
                                          design_ex2):
    """On every sample interval of the example1 and example2 horizons, the
    stride drives of a sine bank (the stride table, budget 0, one interval
    per chunk) equal lift.W times the gathered broadcast-formula samples to
    1e-13 of each row block's size, and w(0) and w(t_k) equal the samples.
    The interval table (no budget, 7 intervals per chunk) gives the forced
    response of those stride drives, accumulated through Mp, to 1e-12 of
    the interval's largest entry, and the same w(t_k)."""
    runs = 5
    bank = bank_with_extra_terms(cfg_ex1, runs)

    def drives(design, budget, steps):
        monkeypatch.setattr(pipeline, "FOLD_BUDGET", budget)
        table, rot = pipeline._fold_bank(design.lift, bank, design.cfg.h_fine)
        assert (rot is None) == (budget == np.inf)
        # each chunk's U is a view of one buffer: copy it before the next;
        # the stride drives come step major, the forced responses run major
        chunks = [(U.copy() if rot is None else U.transpose(2, 1, 0, 3).copy(),
                   w) for U, w in
                  pipeline._bank_drive(design, bank, table, rot, steps)]
        assert all(len(w) == U.shape[1] + 1 for U, w in chunks)
        return (np.concatenate([U for U, _ in chunks], axis=1),
                np.concatenate([chunks[0][1][:1]]
                               + [w[1:] for _, w in chunks]))

    for design in (design_ex1, design_ex2):
        cfg, lift = design.cfg, design.lift
        n_fine, h, p, n_q = cfg.n_fine, cfg.h_fine, lift.stride, lift.n_q
        blocks = (slice(0, lift.n_x), slice(lift.n_x, lift.n_x + lift.n_z),
                  lift.x1)
        folded, w_folded = drives(design, np.inf, 7)
        strides, w_strides = drives(design, 0, 1)
        assert np.array_equal(w_folded, w_strides)
        assert strides.shape == folded.shape == (runs, cfg.n_steps, n_q,
                                                 lift.Mp.shape[0])
        offsets = np.arange(n_fine + 1)
        first = p * np.arange(n_q)[:, None]
        gather = np.hstack([first + np.arange(p + 1),
                            n_fine + 1 + first + np.arange(p)])
        for k in range(cfg.n_steps):
            nodes = h * (k * n_fine + offsets)
            ts = np.concatenate([nodes, nodes[:-1] + 0.5 * h])
            w = np.einsum("ajr,tjr->tar", bank.gains,
                          np.sin(bank.freqs * ts[:, None, None]
                                 + bank.phases))
            ref = np.matmul(lift.W, w[gather].reshape(n_q, -1, runs))
            U = strides[:, k].transpose(1, 2, 0)
            for rows in blocks:
                assert np.max(np.abs(U[:, rows] - ref[:, rows])) <= \
                    1e-13 * np.max(np.abs(ref[:, rows]))
            scale = np.max(np.abs(w))
            assert np.max(np.abs(w_strides[k + 1] - w[n_fine].T)) <= \
                1e-13 * scale
            if not k:
                assert np.max(np.abs(w_strides[0] - w[0].T)) <= 1e-13 * scale
            F = [U[0]]
            for q in range(1, n_q):
                F.append(lift.Mp @ F[-1] + U[q])
            F = np.array(F)
            assert np.max(np.abs(folded[:, k].transpose(1, 2, 0) - F)) <= \
                1e-12 * np.max(np.abs(F))


@pytest.mark.parametrize("runs", [1, 3])
def test_both_sides_of_the_fold_match_node_by_node(monkeypatch, cfg_mixed,
                                                   cfg_ex1, cfg_ex2, runs):
    """A sine-bank input through the stride loop (budget 0) and through the
    interval table (no budget): every column matches its node-by-node run,
    and the two sides match each other, to RTOL."""
    for cfg in scenarios(cfg_mixed, cfg_ex1, cfg_ex2):
        design = build_design(cfg)
        rng = np.random.default_rng(12)
        X0 = Ellipsoid(cfg.xhat0, cfg.K0).sample(rng, runs).T
        bank = (pipeline._sample_input_family(rng, cfg, runs)
                + cfg.w_true.sine_bank(runs))
        sides = []
        for budget in (0, np.inf):
            monkeypatch.setattr(pipeline, "FOLD_BUDGET", budget)
            sides.append(lifted(design, X0, bank))
        for r in range(runs):
            ref = node_by_node(design, X0[:, r],
                               lambda ts, r=r: bank(ts)[:, :, r])
            for got in sides:
                assert_blocks_close(ref, tuple(a[..., r] for a in got))
            assert_blocks_close(*(tuple(a[..., r] for a in got)
                                  for got in sides))


def test_fold_side_follows_the_table_size(monkeypatch, cfg_ex1):
    """A single example1 run folds its bank into the interval table; the
    200-run example1 sweep, whose table (5.5 MiB) exceeds FOLD_BUDGET,
    keeps the stride loop."""
    fold = pipeline._fold_bank
    folded = []

    def recording(lift, bank, h):
        table, rot = fold(lift, bank, h)
        folded.append((bank.freqs.shape[1], rot is None, table.nbytes))
        return table, rot

    monkeypatch.setattr(pipeline, "_fold_bank", recording)
    cfg = cfg_ex1.with_overrides(horizon=0.5)
    run_algorithm1(cfg, with_certificate=False)
    assert monte_carlo_containment(cfg, runs=200, seed=1)["runs"] == 200
    (one, one_folded, one_bytes), (sweep, sweep_folded, stride_bytes) = \
        folded
    assert (one, sweep) == (1, 200)
    assert one_folded and one_bytes <= pipeline.FOLD_BUDGET
    assert not sweep_folded
    assert stride_bytes * cfg.quad_substeps > 5 * 2 ** 20


def test_sweep_through_bank_matches_sampled_sweep(cfg_mixed, cfg_ex1):
    """A 20-run sweep (seed 5) through the sine bank and through the same
    family wrapped in a plain callable agree at every step: each run's
    quadratic form and fused center to 1e-10 of the step's largest."""
    runs = 20
    for cfg in (cfg_mixed, cfg_ex1.with_overrides(horizon=3.0)):
        design = build_design(cfg)
        schedule = shape_schedule(design)
        rng = np.random.default_rng(5)
        X0 = pipeline._sample_initial_states(rng, cfg, runs, False)
        bank = pipeline._sample_input_family(rng, cfg, runs)
        assert isinstance(bank, SineBank)
        for b, s in zip(estimate(design, X0, bank, schedule),
                        estimate(design, X0, lambda ts: bank(ts), schedule),
                        strict=True):
            for got, ref in ((b.q, s.q), (b.xhat, s.xhat)):
                assert np.max(np.abs(got - ref)) <= \
                    1e-10 * np.max(np.abs(ref)), (cfg.name, b.k)
