"""Tests of the end-to-end pipeline: plant integration oracles, the
estimation loop ordering, Monte Carlo batching, trace emission, and the CLI."""

import csv
from pathlib import Path

import numpy as np
import pytest
import yaml

import smobserver.pipeline as pipeline
from smobserver.cli import main as cli_main
from smobserver.decomposition import LtiSystem
from smobserver.ellipsoid import Ellipsoid
from smobserver.errors import (InvalidDesignError, InvalidParameterError,
                               ScenarioFormatError)
from smobserver.numerics import expm
from smobserver.pipeline import (build_design, certify_scenario, emit_plot_data,
                                 emit_traces, estimate,
                                 monte_carlo_containment, parse_traces,
                                 run_algorithm1,
                                 shape_schedule, simulate_plant, trace_header)
from smobserver.scenario import ScenarioConfig
from oracles import sqrtm_polyline

UPDATE_GRAMMIAN = (Path(__file__).resolve().parents[1] / "perfbench"
                   / "scenarios" / "update_grammian.yaml")


# -- plant integration oracles ---------------------------------------------

def test_simulate_plant_scalar_decay():
    sys = LtiSystem(np.array([[-1.0]]), np.zeros((1, 1)),
                    np.eye(1), np.zeros((1, 1)))
    ts, xs = simulate_plant(sys, np.array([1.0]),
                            lambda t: np.zeros((np.atleast_1d(t).shape[0], 1)),
                            dt=0.1, substeps=100, horizon=1.0)
    assert ts[-1] == pytest.approx(1.0)
    assert abs(xs[-1, 0] - np.exp(-1.0)) <= 1e-8


def test_simulate_plant_unforced_matches_exponential():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((3, 3))
    sys = LtiSystem(A, np.zeros((3, 1)), np.eye(3), np.zeros((3, 1)))
    x0 = rng.standard_normal(3)
    ts, xs = simulate_plant(sys, x0,
                            lambda t: np.zeros((np.atleast_1d(t).shape[0], 1)),
                            dt=0.1, substeps=50, horizon=2.0)
    ref = expm(A * 2.0) @ x0
    assert np.allclose(xs[-1], ref, rtol=1e-7, atol=1e-9)


def test_simulate_plant_pure_integrator():
    # dx = w with w = cos t: x(t) = x0 + sin t
    sys = LtiSystem(np.zeros((1, 1)), np.eye(1), np.eye(1), np.zeros((1, 1)))
    w_fn = lambda t: np.cos(np.atleast_1d(np.asarray(t)))[:, None]
    ts, xs = simulate_plant(sys, np.array([0.5]), w_fn,
                            dt=0.1, substeps=20, horizon=3.0)
    assert np.allclose(xs[:, 0], 0.5 + np.sin(ts), atol=1e-10)


# -- estimation loop --------------------------------------------------------

def joined(chunks) -> dict:
    """The centers and quadratic forms of :func:`estimate`'s chunks joined
    along the step axis, and the eps1 gaps as one row per quad node."""
    chunks = list(chunks)
    out = {name: np.concatenate([getattr(c, name) for c in chunks])
           for name in ("x", "x2hat", "xhat", "q")}
    out["eps1_gap"] = np.concatenate(
        [c.eps1_gap.reshape(-1, c.q.shape[-1]) for c in chunks])
    return out


@pytest.mark.parametrize("path", ["bank", "callable"])
def test_estimate_is_chunk_invariant(monkeypatch, cfg_mixed, cfg_ex2, path):
    """Chunks of one sample interval, of 7 (which split the mixed fixture's
    run of updates and leave a short last chunk) and of the whole horizon
    give the same states, centers, quadratic forms and eps1 gaps, to 1e-12
    of each block's largest entry, through a sine bank and through a plain
    callable."""
    runs = 3
    for cfg in (cfg_mixed, cfg_ex2.with_overrides(horizon=3.0)):
        design = build_design(cfg)
        schedule = shape_schedule(design)
        rng = np.random.default_rng(21)
        X0 = Ellipsoid(cfg.xhat0, cfg.K0).sample(rng, runs).T
        bank = pipeline._sample_input_family(rng, cfg, runs)
        family = bank if path == "bank" else (lambda ts: bank(ts))
        lift, N = design.lift, cfg.n_steps
        stack = (lift.n_q + 1) * lift.Mp.shape[0] * runs * 8
        got = []
        for steps in (1, 7, N):
            monkeypatch.setattr(pipeline, "FOLD_BUDGET", steps * stack)
            chunks = list(estimate(design, X0, family, schedule))
            assert [c.q.shape[0] for c in chunks] == \
                [1] + [steps] * (N // steps) + [N % steps] * bool(N % steps)
            got.append(joined(chunks))
        assert N % 7
        assert schedule.skipped[1:].any() == (cfg is not cfg_mixed)
        for name, ref in got[-1].items():
            for other in got[:-1]:
                assert np.max(np.abs(other[name] - ref)) <= \
                    1e-12 * np.max(np.abs(ref)), (cfg.name, name)


def test_step_log_algorithm_order(cfg_mixed):
    log = []
    run_algorithm1(cfg_mixed.with_overrides(horizon=0.3), step_log=log)
    assert log[0] == "setup"
    assert log[1] == "fuse"
    body = log[2:]
    per_step = ["continuous", "gamma", "propagate", "gate", "update", "fuse"]
    assert body == per_step * 3


def test_run_is_contained_and_enveloped(run_mixed, run_ex1, run_ex2):
    for run in (run_mixed, run_ex1, run_ex2):
        assert run.ok
        assert run.containment_ok and run.eps1_ok
        assert run.worst_q <= 1.0 + 1e-9
        assert run.eps1_margin > 0.0


def test_updates_fire_on_mixed_scenario(run_mixed):
    betas = run_mixed.schedule.beta[1:]
    assert np.all(np.isfinite(betas))
    assert np.all(betas > 0.0)
    assert not any(r.skipped for r in run_mixed.traces[1:])


def test_updates_never_fire_on_builtins(run_ex1, run_ex2):
    for run in (run_ex1, run_ex2):
        assert all(r.skipped for r in run.traces)


def test_design_requires_strongly_observable_part(cfg_mixed):
    # a zero output map makes the whole state weakly unobservable
    cfg = cfg_mixed.with_overrides(C=np.zeros((2, 2)), D=np.zeros((2, 1)))
    with pytest.raises(InvalidDesignError):
        build_design(cfg)


def test_design_rejects_overflowing_envelope(tmp_path, cfg_ex2):
    """example2's eps1 envelope grows with the horizon; at 200 s its square
    overflows, which is bad input (exit 3), not a violation."""
    cfg = cfg_ex2.with_overrides(horizon=200.0)
    with pytest.raises(InvalidDesignError, match="overflows"):
        build_design(cfg)
    scen = tmp_path / "ex2_long.yaml"
    cfg.save(scen)
    assert cli_main(["run", "--scenario", str(scen),
                     "--out", str(tmp_path / "o")]) == 3


def test_design_rejects_overflowing_state_walk(tmp_path, cfg_ex2):
    """At 400 s example2's state envelope ||e^{At}|| (eigenvalue +2)
    overflows; its walk gives inf, so the output derivative bound is inf
    and certify exits 3 instead of failing inside an SVD."""
    cfg = cfg_ex2.with_overrides(horizon=400.0)
    with pytest.raises(InvalidDesignError, match="output derivative bound"):
        build_design(cfg)
    scen = tmp_path / "ex2_400.yaml"
    cfg.save(scen)
    assert cli_main(["certify", "--scenario", str(scen)]) == 3


def test_certify_scenario_consistency(cfg_mixed, run_mixed):
    """The certificate from the shape schedule alone is the run's."""
    rep, schedule = certify_scenario(cfg_mixed)
    assert rep.case in ("lemma6", "lemma7")
    assert yaml.safe_dump(rep.to_dict()) == yaml.safe_dump(
        run_mixed.report.to_dict())
    assert rep.shape_inconsistency(schedule.P2, schedule.shape) is None
    assert np.array_equal(schedule.P2, [ws.P2hat for ws in
                                        run_mixed.weak_states])


# -- Monte Carlo ------------------------------------------------------------

def test_mc_empty():
    from smobserver.scenario import example2
    out = monte_carlo_containment(example2(), runs=0, seed=0)
    assert out["runs"] == 0
    assert out["containment_rate"] is None
    # the same record as a sweep, key for key and in order
    sweep = monte_carlo_containment(example2().with_overrides(horizon=0.2),
                                    runs=1, seed=0)
    assert list(out) == list(sweep)


def test_mc_mixed_contained(cfg_mixed):
    out = monte_carlo_containment(cfg_mixed, runs=10, seed=3)
    assert out["containment_rate"] == 1.0
    assert out["eps1_violations"] == 0
    assert out["worst_q"] <= 1.0 + 1e-9
    assert len(out["per_run_worst_q"]) == 10


def test_mc_batched_matches_single_run(cfg_mixed, cfg_ex1, cfg_ex2):
    """Feeding the nominal initial state and input through the batched path
    must reproduce the single-run worst quadratic form."""
    for cfg in (cfg_mixed, cfg_ex1.with_overrides(horizon=3.0),
                cfg_ex2.with_overrides(horizon=3.0)):
        run = run_algorithm1(cfg)
        x0s = cfg.xhat0[:, None]

        def w_family(ts, cfg=cfg):
            return cfg.w_true(np.atleast_1d(np.asarray(ts)))[:, :, None]

        out = monte_carlo_containment(cfg, runs=1, seed=0, x0s=x0s,
                                      w_family=w_family)
        assert out["per_run_worst_q"][0] == pytest.approx(
            run.worst_q, rel=1e-10, abs=1e-10), cfg.name


def test_mc_never_reruns_the_single_run(monkeypatch, cfg_mixed):
    """The sweep shares the estimator loop; it runs no nominal estimate."""
    def forbidden(*args, **kwargs):
        raise AssertionError("run_algorithm1 called by the Monte Carlo sweep")

    monkeypatch.setattr(pipeline, "run_algorithm1", forbidden)
    out = monte_carlo_containment(cfg_mixed.with_overrides(horizon=1.0),
                                  runs=3, seed=2)
    assert out["runs"] == 3 and out["containment_rate"] == 1.0


def test_batch_columns_match_single_runs(cfg_mixed):
    """Three runs with distinct initial states and inputs in one batch: each
    column equals its own one-column run, and the shapes are shared."""
    cfg = cfg_mixed.with_overrides(horizon=2.0)
    design = build_design(cfg)
    rng = np.random.default_rng(7)
    X0 = Ellipsoid(cfg.xhat0, cfg.K0).sample(rng, 3).T
    family = pipeline._sample_input_family(rng, cfg, 3)
    schedule = shape_schedule(design)
    batch = joined(estimate(design, X0, family, schedule))
    out = monte_carlo_containment(cfg, runs=3, seed=0, x0s=X0,
                                  w_family=family)
    for r in range(3):
        def w_r(ts, r=r):
            return family(ts)[:, :, r:r + 1]

        single = joined(estimate(design, X0[:, r:r + 1], w_r, schedule))
        assert len(single["q"]) == len(batch["q"]) == cfg.n_steps + 1
        for name in ("xhat", "x2hat", "q"):
            for got, ref in zip(batch[name][..., r:r + 1], single[name]):
                assert np.max(np.abs(got - ref)) <= 1e-10 * max(
                    1.0, np.max(np.abs(ref)))
        run = run_algorithm1(cfg, design=design, x0=X0[:, r],
                             w_fn=lambda ts, r=r: family(ts)[:, :, r])
        assert out["per_run_worst_q"][r] == pytest.approx(run.worst_q,
                                                          rel=1e-10)
    assert not schedule.skipped[1:].all()


# -- emission and CLI -------------------------------------------------------

def test_trace_header_layout():
    cols = trace_header(2)
    assert cols[:3] == ["t", "x_true0", "x_true1"]
    assert cols[-2:] == ["contained", "skipped"]
    assert len(cols) == 1 + 4 * 2 + 9


def test_emit_parse_round_trip(tmp_path, run_mixed, run_ex2):
    """Every field of the trace record survives a write and a read, nan
    entries included."""
    for run in (run_mixed, run_ex2):
        path = tmp_path / "traces.csv"
        emit_traces(run.traces, path)
        back = parse_traces(path)
        assert back.dtype == run.traces.dtype
        for name in back.dtype.names:
            np.testing.assert_array_equal(back[name], run.traces[name],
                                          err_msg=name, strict=True)


def _fmt(v) -> str:
    return repr(float(v))


def _row_emit_traces(traces, path) -> None:
    """Reference writer: ``traces.csv`` one row and one cell at a time."""
    n = traces.dtype["x_true"].shape[0]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(trace_header(n))
        for row in traces:
            writer.writerow(
                [_fmt(row.t)] + [_fmt(v) for v in row.x_true]
                + [_fmt(v) for v in row.xhat] + [_fmt(v) for v in row.lo]
                + [_fmt(v) for v in row.hi]
                + [_fmt(row.trP), _fmt(row.vol), _fmt(row.eps1),
                   _fmt(row.alpha), _fmt(row.beta), _fmt(row.gamma),
                   _fmt(row.mu), str(int(row.contained)),
                   str(int(row.skipped))])


def _row_emit_plot_data(run, out_dir, ellipse_axes) -> None:
    """Reference writer: the plot files one row and one cell at a time."""
    n = run.traces.dtype["x_true"].shape[0]
    with open(out_dir / "plot_volume.csv", "w", newline="",
              encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "vol", "trP"])
        for row in run.traces:
            w.writerow([_fmt(row.t), _fmt(row.vol), _fmt(row.trP)])
    with open(out_dir / "plot_bounds.csv", "w", newline="",
              encoding="utf-8") as fh:
        w = csv.writer(fh)
        head = ["t"]
        for i in range(n):
            head += [f"x{i}", f"lo{i}", f"hi{i}"]
        w.writerow(head)
        for row in run.traces:
            rec = [_fmt(row.t)]
            for i in range(n):
                rec += [_fmt(row.x_true[i]), _fmt(row.lo[i]), _fmt(row.hi[i])]
            w.writerow(rec)
    i, j = ellipse_axes
    with open(out_dir / f"plot_ellipses_x{i}x{j}.csv", "w", newline="",
              encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "px", "py"])
        for row, K in zip(run.traces, run.schedule.shape):
            for p in sqrtm_polyline(
                    np.array([row.xhat[i], row.xhat[j]]),
                    np.array([[K[i, i], K[i, j]], [K[j, i], K[j, j]]])):
                w.writerow([_fmt(row.t), _fmt(p[0]), _fmt(p[1])])


@pytest.mark.parametrize("run_name,axes", [("run_mixed", (0, 1)),
                                           ("run_ex2", (1, 2))])
def test_column_writers_match_row_writers(run_name, axes, tmp_path, request):
    """The column writers produce the bytes of a per-cell csv.writer; the
    ellipse polylines, whose square roots are closed form in the batch and
    ``sqrtm`` per row, agree to 1e-12 of each row's largest coordinate."""
    run = request.getfixturevalue(run_name)
    new, ref = tmp_path / "new", tmp_path / "ref"
    new.mkdir(), ref.mkdir()
    emit_traces(run.traces, new / "traces.csv")
    written = emit_plot_data(run, new, ellipse_axes=axes)
    _row_emit_traces(run.traces, ref / "traces.csv")
    _row_emit_plot_data(run, ref, axes)
    names = sorted(p.name for p in ref.iterdir())
    assert sorted(p.name for p in new.iterdir()) == names
    assert len(written) == 3
    for name in names:
        if name.startswith("plot_ellipses"):
            got, want = (np.loadtxt(d / name, delimiter=",", skiprows=1)
                         .reshape(len(run.traces), 50, 3) for d in (new, ref))
            assert np.array_equal(got[..., 0], want[..., 0])
            assert np.all(np.max(np.abs(got - want), axis=(1, 2)) <= 1e-12
                          * np.max(np.abs(want[..., 1:]), axis=(1, 2)))
        else:
            assert (new / name).read_bytes() == (ref / name).read_bytes(), \
                name


def test_emit_traces_deterministic(tmp_path, run_mixed):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_traces(run_mixed.traces, p1)
    emit_traces(run_mixed.traces, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_trace_shape_columns_equal_per_step_values(run_mixed, run_ex2):
    """The batched trP, vol, lo and hi of every trace row equal, bit for
    bit, the per-step values of the row's own shape and center."""
    from smobserver.ellipsoid import axis_bounds, volume
    for run in (run_mixed, run_ex2):
        for row, K in zip(run.traces, run.schedule.shape, strict=True):
            lo, hi = axis_bounds(row.xhat, K)
            assert row.trP == float(np.trace(K))
            assert row.vol == volume(K)
            assert np.array_equal(row.lo, lo) and np.array_equal(row.hi, hi)


def test_emit_plot_data_files(tmp_path, run_mixed):
    written = emit_plot_data(run_mixed, tmp_path, ellipse_axes=(0, 1))
    names = {p.split("/")[-1] for p in map(str, written)}
    assert names == {"plot_volume.csv", "plot_bounds.csv",
                     "plot_ellipses_x0x1.csv"}
    head = (tmp_path / "plot_volume.csv").read_text().splitlines()[0]
    assert head == "t,vol,trP"


def test_each_weak_shape_is_checked_once(cfg_ex2, cfg_mixed, monkeypatch):
    """The schedule checks the initial weak shape, each predicted shape and
    each updated shape exactly once: the predicted shape of an update step
    on its own, as beta reads its factor, and every other one in a batch.
    That is 1 + n_steps shapes on example2, where the update never fires,
    and 1 + 2 n_steps on the mixed scenario, where it fires every step; a
    Monte Carlo sweep checks them once per sweep."""
    import smobserver.weak as weak
    checked = []
    check_shape = weak.check_shape

    def recording(P2):
        checked.extend(P.tobytes() for P in P2.reshape((-1,) + P2.shape[-2:]))
        return check_shape(P2)

    for module in (pipeline, weak):
        monkeypatch.setattr(module, "check_shape", recording)
    for cfg, per_step in ((cfg_ex2, 1), (cfg_mixed, 2)):
        cfg = cfg.with_overrides(horizon=2.0)
        checked.clear()
        schedule = run_algorithm1(cfg, with_certificate=False).schedule
        updated = schedule.P2[1:][~schedule.skipped[1:]]
        shapes = [schedule.P2[0], *schedule.P2_pred[1:], *updated]
        assert len(shapes) == 1 + per_step * cfg.n_steps
        assert sorted(checked) == sorted(P.tobytes() for P in shapes)
        checked.clear()
        monte_carlo_containment(cfg, runs=2, seed=0)
        assert len(checked) == 1 + per_step * cfg.n_steps


def test_schedule_batches_the_p2_free_half(cfg_mixed, monkeypatch):
    """The stacking gains, M2k, G_k, the update gate, the update's
    information matrices, the recursion and the fusion run in one call
    each per schedule, whatever the horizon.  In the recursion,
    optimize_beta and measurement_update run once per update step, and no
    numpy.linalg function runs per step: their calls do not grow with the
    horizon."""
    import smobserver.weak as weak
    calls = {}

    def count(module, name):
        def counting(*args, _fn=getattr(module, name), **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)

    for name in ("gamma_terms", "propagate", "gk_matrix",
                 "update_is_informative", "update_information",
                 "shape_recursion", "fuse"):
        count(pipeline, name)
    for name in ("optimize_beta", "measurement_update"):
        count(weak, name)
    linalg = ("cholesky", "eigh", "eigvalsh", "inv", "solve")
    for name in linalg:
        count(np.linalg, name)
    linalg_calls = []
    for horizon in (1.0, 2.0):
        cfg = cfg_mixed.with_overrides(horizon=horizon)
        design = build_design(cfg)
        calls.clear()
        assert not shape_schedule(design).skipped[1:].any()
        linalg_calls.append({name: calls.pop(name, 0) for name in linalg})
        assert calls == {"gamma_terms": 1, "propagate": 1, "gk_matrix": 1,
                         "update_is_informative": 1, "update_information": 1,
                         "shape_recursion": 1, "fuse": 1,
                         "optimize_beta": cfg.n_steps,
                         "measurement_update": cfg.n_steps}
    assert linalg_calls[0] == linalg_calls[1]


def test_schedule_decides_the_update_gate_once(cfg_mixed, monkeypatch):
    """One run tests the update gate on the G_k stack twice, in
    shape_schedule and in update_information's guard, and takes the
    information once; the certificate makes no gate decision of its own.
    With both functions patched to raise, certify_design still gives the
    run's lemma7 certificate from the schedule's ``info`` and ``skipped``."""
    import smobserver.certificates as certificates
    import smobserver.weak as weak
    names = ("update_is_informative", "update_information")
    modules = (pipeline, weak, certificates)
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        wrapper = counting(name, getattr(weak, name))
        for mod in modules:
            monkeypatch.setattr(mod, name, wrapper, raising=False)
    cfg = cfg_mixed.with_overrides(horizon=2.0)
    design = build_design(cfg)
    run = run_algorithm1(cfg, design=design)
    assert calls == {"update_is_informative": 2, "update_information": 1}
    assert run.report.case == "lemma7"

    def forbidden(*args, **kwargs):
        raise AssertionError("update gate evaluated by the certificate")

    for name in names:
        for mod in (weak, certificates):
            monkeypatch.setattr(mod, name, forbidden, raising=False)
    rep = pipeline.certify_design(design, run.schedule)
    assert yaml.safe_dump(rep.to_dict()) == yaml.safe_dump(
        run.report.to_dict())


def test_estimate_runs_no_shape_code(cfg_mixed, monkeypatch):
    """Once the schedule is built, the center loop needs no shape function:
    with every one of them patched to raise, estimate still runs and
    reproduces the run driven by the same callable input."""
    import smobserver.fusion as fusion
    import smobserver.weak as weak
    cfg = cfg_mixed.with_overrides(horizon=1.0)
    design = build_design(cfg)
    schedule = shape_schedule(design)
    run = run_algorithm1(cfg, design=design, with_certificate=False,
                         w_fn=lambda ts: cfg.w_true(ts))

    def forbidden(*args, **kwargs):
        raise AssertionError("shape function called by the center loop")

    for name in ("propagate", "measurement_update", "optimize_beta", "fuse",
                 "gk_matrix", "gamma_terms", "build_Ku",
                 "update_is_informative", "update_information",
                 "check_shape", "quad_kernels"):
        for mod in (pipeline, weak, fusion):
            monkeypatch.setattr(mod, name, forbidden, raising=False)
    steps = joined(estimate(design, cfg.xhat0[:, None],
                            lambda ts: cfg.w_true(ts)[:, :, None], schedule))
    assert len(steps["xhat"]) == cfg.n_steps + 1
    assert np.array_equal(steps["xhat"][:, :, 0],
                          [row.xhat for row in run.traces])
    assert float(np.max(steps["q"])) == run.worst_q


def _indefinite_step(monkeypatch, k: int) -> None:
    """Make step k's predicted weak shape indefinite: M2k gains
    c diag(1, -1, 0, ...), which keeps its trace, with c large."""
    propagate = pipeline.propagate

    def indefinite(*args, **kwargs):
        M2k = propagate(*args, **kwargs)
        swing = np.zeros(M2k.shape[-1])
        swing[:2] = 1e6 * np.trace(M2k[k - 1]), -1e6 * np.trace(M2k[k - 1])
        M2k[k - 1] += np.diag(swing)
        return M2k

    monkeypatch.setattr(pipeline, "propagate", indefinite)


def test_indefinite_predicted_shape_is_bad_input(tmp_path, cfg_ex2,
                                                 monkeypatch):
    """An indefinite P2_pred on update step k (1 or 4) stops the schedule
    with InvalidParameterError (exit 3 from run and certify) before
    optimize_beta sees it; on a step without an update, the batched check
    stops it.  The update steps are those of the mixed system with a
    two-state weak block."""
    import smobserver.weak as weak
    from conftest import make_mixed3_scenario
    cfg = make_mixed3_scenario(horizon=1.0)
    design = build_design(cfg)
    assert design.dec.n2 == 2 and not shape_schedule(design).skipped[1:].any()
    scen = tmp_path / "mixed3.yaml"
    cfg.save(scen)
    optimize_beta = weak.optimize_beta
    ex2 = build_design(cfg_ex2.with_overrides(horizon=1.0))
    for k in (1, 4):
        calls = []

        def before_step_k(*args, **kwargs):
            calls.append(1)
            if len(calls) >= k:
                raise AssertionError("optimize_beta ran on an unchecked shape")
            return optimize_beta(*args, **kwargs)

        monkeypatch.undo()
        _indefinite_step(monkeypatch, k)
        monkeypatch.setattr(weak, "optimize_beta", before_step_k)
        with pytest.raises(InvalidParameterError, match="P2hat must be SPD"):
            shape_schedule(design)
        assert len(calls) == k - 1
        for args in (["run", "--scenario", str(scen), "--out", str(tmp_path)],
                     ["certify", "--scenario", str(scen)]):
            calls.clear()
            assert cli_main(args) == 3
            assert len(calls) == k - 1
        with pytest.raises(InvalidParameterError, match="P2hat must be SPD"):
            shape_schedule(ex2)


def test_cli_run_and_certify(tmp_path, cfg_mixed):
    scen = tmp_path / "mixed.yaml"
    cfg_mixed.with_overrides(horizon=2.0).save(scen)
    out = tmp_path / "out"
    assert cli_main(["run", "--scenario", str(scen),
                     "--out", str(out)]) == 0
    assert (out / "traces.csv").exists()
    assert (out / "certificate.yaml").exists()
    assert cli_main(["mc", "--scenario", str(scen), "--runs", "3",
                     "--seed", "1"]) == 0


def test_cli_mc_uses_the_scenario_seed(tmp_path, cfg_mixed, capsys):
    """Without --seed, mc sweeps with the scenario's seed and prints what
    --seed 7 prints; an explicit --seed still overrides it."""
    scen = tmp_path / "mixed.yaml"
    cfg_mixed.with_overrides(horizon=2.0, seed=7).save(scen)
    assert yaml.safe_load(scen.read_text())["seed"] == 7
    base = ["mc", "--scenario", str(scen), "--runs", "3"]
    printed = []
    for extra in ([], ["--seed", "7"], ["--seed", "0"]):
        assert cli_main(base + extra) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert yaml.safe_load(printed[0])["seed"] == 7
    assert yaml.safe_load(printed[2])["seed"] == 0


def test_cli_run_reports_violation_times(tmp_path, cfg_mixed, monkeypatch,
                                         capsys):
    """A run whose every row fails containment exits 1 and names each
    sample time as a plain float."""
    monkeypatch.setattr(pipeline, "MEMBERSHIP_SLACK", -2.0)
    scen = tmp_path / "mixed.yaml"
    cfg_mixed.save(scen)
    assert cli_main(["run", "--scenario", str(scen),
                     "--out", str(tmp_path / "out")]) == 1
    times = [k * cfg_mixed.dt for k in range(cfg_mixed.n_steps + 1)]
    assert (capsys.readouterr().err
            == f"CONTAINMENT VIOLATION at t = {times}\n")


def test_cli_certify_mixed_exits_0(tmp_path, cfg_mixed, capsys):
    scen = tmp_path / "mixed.yaml"
    cfg_mixed.with_overrides(horizon=2.0).save(scen)
    assert cli_main(["certify", "--scenario", str(scen)]) == 0
    assert "consistent with the realized run" in capsys.readouterr().out


def test_cli_certify_inconsistent_exits_2(tmp_path, cfg_mixed, monkeypatch,
                                          capsys):
    """A p2_hi below a realized eigenvalue of P2 is an inconsistency."""
    certify_design = pipeline.certify_design

    def low_p2_hi(*args, **kwargs):
        rep = certify_design(*args, **kwargs)
        rep.p2_hi = 0.5 * rep.p2_lo
        return rep

    monkeypatch.setattr(pipeline, "certify_design", low_p2_hi)
    scen = tmp_path / "mixed.yaml"
    cfg_mixed.with_overrides(horizon=2.0).save(scen)
    assert cli_main(["certify", "--scenario", str(scen)]) == 2
    assert "lambda_max" in capsys.readouterr().err


def test_shape_inconsistency_checks_the_theorem2_sandwich(
        run_ex1, run_ex2, run_mixed, cfg_ex1, tmp_path, monkeypatch, capsys):
    """Each run's fused shapes lie in [P_lo, P_hi].  Halving example1's
    P_hi puts it below the largest realized shape (4.0e17 against
    2.4e17), and certify exits 2."""
    from dataclasses import replace
    for run in (run_ex1, run_ex2, run_mixed):
        sched = run.schedule
        assert run.report.shape_inconsistency(sched.P2, sched.shape) is None
    half = replace(run_ex1.report, P_hi=0.5 * run_ex1.report.P_hi)
    problem = half.shape_inconsistency(run_ex1.schedule.P2,
                                       run_ex1.schedule.shape)
    assert "P_hi - P_k" in problem
    certify_design = pipeline.certify_design

    def half_P_hi(*args, **kwargs):
        rep = certify_design(*args, **kwargs)
        rep.P_hi = 0.5 * rep.P_hi
        return rep

    monkeypatch.setattr(pipeline, "certify_design", half_P_hi)
    scen = tmp_path / "ex1.yaml"
    cfg_ex1.save(scen)
    assert cli_main(["certify", "--scenario", str(scen)]) == 2
    assert "P_hi - P_k" in capsys.readouterr().err


def test_cli_missing_scenario_exits_3(tmp_path):
    assert cli_main(["run", "--scenario", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "o")]) == 3


def test_cli_malformed_yaml_exits_3(tmp_path):
    scen = tmp_path / "bad.yaml"
    scen.write_text("A: [[1.0, 2.0]\nB: {\n", encoding="utf-8")
    assert cli_main(["run", "--scenario", str(scen),
                     "--out", str(tmp_path / "o")]) == 3


def test_cli_scenario_without_A_exits_3(tmp_path, cfg_mixed):
    d = cfg_mixed.to_dict()
    del d["A"]
    scen = tmp_path / "no_A.yaml"
    scen.write_text(yaml.safe_dump(d, sort_keys=False), encoding="utf-8")
    assert cli_main(["run", "--scenario", str(scen),
                     "--out", str(tmp_path / "o")]) == 3


def test_cli_mc_negative_runs_exits_3(tmp_path, cfg_mixed):
    scen = tmp_path / "mixed.yaml"
    cfg_mixed.with_overrides(horizon=1.0).save(scen)
    assert cli_main(["mc", "--scenario", str(scen), "--runs", "-1"]) == 3


def test_cli_substep_overrides(tmp_path, cfg_mixed):
    scen = tmp_path / "mixed.yaml"
    cfg_mixed.with_overrides(horizon=1.0).save(scen)
    out = tmp_path / "out"
    assert cli_main(["run", "--scenario", str(scen), "--out", str(out),
                     "--substeps", "20", "--quad-substeps", "40",
                     "--hgo-substeps", "200"]) == 0


@pytest.mark.parametrize("x0_true", ["short", "outside"])
def test_cli_rejects_bad_x0_true(tmp_path, x0_true):
    """A true initial state of the wrong length, or outside E(xhat0, K0),
    is bad input (exit 3), not an estimator failure."""
    cfg = ScenarioConfig.load(UPDATE_GRAMMIAN)
    d = cfg.to_dict()
    d["horizon"] = 1.0
    d["x0_true"] = ([0.1, -0.2, 0.0] if x0_true == "short"
                    else (cfg.xhat0 + 10.0).tolist())
    scen = tmp_path / "bad_x0.yaml"
    scen.write_text(yaml.safe_dump(d, sort_keys=False), encoding="utf-8")
    assert cli_main(["run", "--scenario", str(scen),
                     "--out", str(tmp_path / "o")]) == 3
    with pytest.raises(ScenarioFormatError, match="x0_true"):
        ScenarioConfig.from_dict(d)


def _bad_scenario(tmp_path, **fields):
    """update_grammian.yaml at a 1 s horizon with ``fields`` replaced."""
    d = ScenarioConfig.load(UPDATE_GRAMMIAN).to_dict()
    d["horizon"] = 1.0
    for key, value in fields.items():
        if key == "y_deriv_bound":
            d["hgo"][key] = value
        else:
            d[key] = value
    scen = tmp_path / "bad.yaml"
    scen.write_text(yaml.safe_dump(d, sort_keys=False), encoding="utf-8")
    return scen, d


@pytest.mark.parametrize("command", ["run", "certify"])
@pytest.mark.parametrize("target", ["update_information", "grammian_rho"])
def test_cli_linear_algebra_failure_is_bad_input(tmp_path, monkeypatch, capsys,
                                                 command, target):
    """A LinAlgError from the weak-block update or from the certificate's
    Grammian window (a singular G_k) exits 3 with a one-line error, not a
    traceback: ``cli.main`` used to let it escape."""
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular\nmatrix")

    import smobserver.certificates as certificates
    module = pipeline if target == "update_information" else certificates
    monkeypatch.setattr(module, target, singular)
    scen, _ = _bad_scenario(tmp_path)
    args = [command, "--scenario", str(scen)]
    if command == "run":
        args += ["--out", str(tmp_path / "o")]
    assert cli_main(args) == 3
    err = capsys.readouterr().err
    assert err == "error: linear algebra failed: Singular matrix\n"


@pytest.mark.parametrize("field,value", [
    ("xhat0", [float("nan"), 0.0]),
    ("mc_freq_max", float("nan")),
    ("mc_freq_max", float("inf")),
    ("mc_freq_max", -1.0),
    ("mc_n_terms", -2),
    ("w_true", [[{"kind": "sin", "amp": 0.3, "freq": 1.0, "phase": 0.0},
                 {"kind": "sin", "amp": float("nan"), "freq": 0.7,
                  "phase": 0.0}]]),
    ("dt", "fast"),
    ("A", "abc"),
    ("quad_substeps", "x"),
    ("uio_poles", "ab"),
    ("horizon", float("nan")),
    ("dt", float("inf")),
    ("cw", 5),
    ("Kw", [1]),
    ("hgo", [1])])
def test_cli_rejects_bad_scenario_numbers(tmp_path, capsys, field, value):
    """A non-finite initial center, a non-finite or negative Monte Carlo
    frequency bound, a negative number of Monte Carlo terms, a nan true
    input, a value of the wrong type or a non-finite step or horizon is bad
    input (exit 3) named for its key where the scenario is read: a nan
    frequency bound once made the output-derivative bound drop its input
    terms and ``run`` exit 0, a nan true input was reported as a
    containment violation (exit 1), and an unconvertible value escaped as a
    traceback (exit 1)."""
    scen, d = _bad_scenario(tmp_path, **{field: value})
    with pytest.raises(ScenarioFormatError, match=field):
        ScenarioConfig.from_dict(d)
    assert cli_main(["run", "--scenario", str(scen),
                     "--out", str(tmp_path / "o")]) == 3
    assert cli_main(["mc", "--scenario", str(scen), "--runs", "2"]) == 3
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value", [
    ("hgo", "l_override", "x"),
    ("hgo", "zbar0", "abc"),
    ("hgo", "y_deriv_bound", "abc"),
    ("cert", "r", "abc"),
    ("cert", "alpha_lo", "abc")])
def test_cli_rejects_malformed_optional_keys(tmp_path, capsys, section, key,
                                             value):
    """A malformed optional key of the hgo or cert section is bad input
    (exit 3) named for its key where the scenario is read; each once
    escaped later as a ValueError or TypeError (exit 1)."""
    d = ScenarioConfig.load(UPDATE_GRAMMIAN).to_dict()
    d["horizon"] = 1.0
    if section == "cert":
        d["cert"].update(mode="declared", alpha_hi=0.9, beta_lo=0.1,
                         beta_hi=0.9)
    d[section][key] = value
    scen = tmp_path / "bad.yaml"
    scen.write_text(yaml.safe_dump(d, sort_keys=False), encoding="utf-8")
    name = f"{section}.{key}"
    with pytest.raises(ScenarioFormatError, match=name):
        ScenarioConfig.from_dict(d)
    assert cli_main(["run", "--scenario", str(scen),
                     "--out", str(tmp_path / "o")]) == 3
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("r", 0), ("r", -3), ("margin_scale", -1.0), ("margin_scale", 0.0),
    ("margin_scale", float("nan")), ("margin_scale", float("inf")),
    ("harvest_margin", -0.01), ("harvest_margin", float("nan")),
    ("harvest_margin", float("inf")), ("harvest_margin", 1.5)])
def test_cli_rejects_out_of_range_cert_options(tmp_path, capsys, key, value):
    """A window length r < 1, an envelope margin that is not finite and
    positive, or a harvest margin that is not finite and in [0, 1], is bad
    input (exit 3) named for its key where the scenario is read: r <= 0
    once gave a case-none certificate (``certify`` exit 2, ``run`` exit 0),
    margin_scale 0 an uncertified amplitude walk, a negative or non-finite
    margin_scale a traceback (exit 1), and harvest_margin -0.01 harvested
    alpha/beta bounds inside the realized range, so that ``certify``
    reported a certificate on false premises (exit 0)."""
    d = ScenarioConfig.load(UPDATE_GRAMMIAN).to_dict()
    d["horizon"] = 1.0
    d["cert"][key] = value
    scen = tmp_path / "bad.yaml"
    scen.write_text(yaml.safe_dump(d, sort_keys=False), encoding="utf-8")
    name = f"cert.{key}"
    with pytest.raises(ScenarioFormatError, match=name):
        ScenarioConfig.from_dict(d)
    assert cli_main(["run", "--scenario", str(scen),
                     "--out", str(tmp_path / "o")]) == 3
    assert name in capsys.readouterr().err
    assert cli_main(["certify", "--scenario", str(scen)]) == 3
    assert name in capsys.readouterr().err


def test_harvest_margin_accepts_its_closed_range():
    """Both ends of [0, 1] load: no margin, and the widest one."""
    d = ScenarioConfig.load(UPDATE_GRAMMIAN).to_dict()
    for value in (0.0, 1.0):
        d["cert"]["harvest_margin"] = value
        assert ScenarioConfig.from_dict(d).cert.harvest_margin == value


@pytest.mark.parametrize("name,misspell", [
    ("quad_substep", lambda d: d.update(quad_substep=40)),
    ("hgo.pol", lambda d: d["hgo"].update(pol=2.0)),
    ("phse", lambda d: d["w_true"][0][1].update(phse=1.0))],
    ids=["top-level", "section", "term"])
def test_cli_rejects_unknown_scenario_keys(tmp_path, capsys, name, misspell):
    """A misspelt key is bad input (exit 3) that names it, wherever it
    sits: at the top level, in a section or in a signal term.  Each was
    once dropped, so the run went on with the default it meant to
    replace (``certify`` exit 0)."""
    d = ScenarioConfig.load(UPDATE_GRAMMIAN).to_dict()
    d["horizon"] = 1.0
    misspell(d)
    scen = tmp_path / "typo.yaml"
    scen.write_text(yaml.safe_dump(d, sort_keys=False), encoding="utf-8")
    with pytest.raises(ScenarioFormatError, match=name):
        ScenarioConfig.from_dict(d)
    assert cli_main(["run", "--scenario", str(scen),
                     "--out", str(tmp_path / "o")]) == 3
    assert name in capsys.readouterr().err
    assert cli_main(["certify", "--scenario", str(scen)]) == 3
    assert name in capsys.readouterr().err


def test_cli_rejects_non_finite_derivative_bound(tmp_path, capsys):
    """A non-finite output-derivative bound is a design error (exit 3) named
    for that bound, not for the eps1 envelope it would poison."""
    scen, d = _bad_scenario(tmp_path, y_deriv_bound=float("nan"))
    with pytest.raises(InvalidDesignError, match="derivative bound"):
        build_design(ScenarioConfig.from_dict(d))
    assert cli_main(["run", "--scenario", str(scen),
                     "--out", str(tmp_path / "o")]) == 3
    assert "derivative bound" in capsys.readouterr().err


def test_horizon_must_be_whole_steps(tmp_path, cfg_mixed):
    """horizon = 1.06 with dt = 0.1 is not a whole number of steps: bad
    input (exit 3), not a crash in the center pass."""
    with pytest.raises(ScenarioFormatError, match="whole number"):
        cfg_mixed.with_overrides(horizon=1.06)
    d = cfg_mixed.to_dict()
    d["horizon"] = 1.06
    scen = tmp_path / "ragged.yaml"
    scen.write_text(yaml.safe_dump(d, sort_keys=False), encoding="utf-8")
    assert cli_main(["run", "--scenario", str(scen),
                     "--out", str(tmp_path / "o")]) == 3
    # a horizon a rounding error off a whole number of steps is accepted
    assert cfg_mixed.with_overrides(horizon=0.3).n_steps == 3
