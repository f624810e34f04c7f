"""Tests of the signal generators, scenario serialization, and the analytic
signal bounds."""

from pathlib import Path

import numpy as np
import pytest

from smobserver.errors import ScenarioFormatError
from smobserver.generators import ShapeGenerator, SignalGenerator, Term
from smobserver.scenario import (BUILTIN_SCENARIOS, ScenarioConfig,
                                 input_deriv_bound, input_norm_bound,
                                 state_norm_bound, y_derivative_bound)


def test_term_evaluation_and_bounds():
    c = Term(kind="const", value=2.0)
    s = Term(kind="sin", amp=0.5, freq=3.0, phase=0.1)
    ts = np.linspace(0.0, 1.0, 7)
    assert np.allclose(c(ts), 2.0)
    assert np.allclose(s(ts), 0.5 * np.sin(3.0 * ts + 0.1))
    assert c.deriv_bound(0) == 2.0 and c.deriv_bound(1) == 0.0
    assert s.deriv_bound(2) == pytest.approx(0.5 * 9.0)


def test_term_round_trip():
    for t in (Term(kind="const", value=-1.5),
              Term(kind="sin", amp=0.3, freq=2.0, phase=0.7)):
        assert Term.from_dict(t.to_dict()) == t
    with pytest.raises(ScenarioFormatError):
        Term(kind="cos")


def test_signal_generator_vector_output():
    g = SignalGenerator(components=(
        (Term(kind="const", value=1.0), Term(kind="sin", amp=0.5, freq=1.0)),
        (Term(kind="sin", amp=2.0, freq=0.5),)))
    assert g.dim == 2
    ts = np.array([0.0, 0.5])
    out = g(ts)
    assert out.shape == (2, 2)
    assert out[0, 0] == pytest.approx(1.0)
    assert np.allclose(g.deriv_bound(1), [0.5, 1.0])
    assert SignalGenerator.from_dict(g.to_dict()) == g


def test_shape_generator_const_and_diag():
    Kc = ShapeGenerator(kind="const", matrix=np.diag([3.0, 5.0]))
    assert Kc.eig_bounds() == (3.0, 5.0)
    assert Kc(np.array([0.0, 1.0])).shape == (2, 2, 2)
    Kd = ShapeGenerator(kind="diag", entries=SignalGenerator(components=(
        (Term(kind="const", value=2.0), Term(kind="sin", amp=0.5, freq=1.0)),
    )))
    lo, hi = Kd.eig_bounds()
    assert lo == pytest.approx(1.5) and hi == pytest.approx(2.5)
    assert ShapeGenerator.from_dict(Kd.to_dict()).eig_bounds() == (lo, hi)


def test_shape_generator_rejects_indefinite():
    from smobserver.errors import InvalidParameterError
    with pytest.raises(InvalidParameterError):
        ShapeGenerator(kind="const", matrix=np.diag([1.0, -1.0]))
    with pytest.raises(InvalidParameterError):
        ShapeGenerator(kind="diag", entries=SignalGenerator(components=(
            (Term(kind="sin", amp=2.0, freq=1.0),),)))


def test_builtin_scenarios_validate(cfg_ex1, cfg_ex2):
    assert cfg_ex1.n_steps == 300
    assert cfg_ex2.n_steps == 500
    assert cfg_ex1.system.n_x == 5
    assert cfg_ex2.system.n_x == 3
    assert set(BUILTIN_SCENARIOS) == {"example1", "example2"}


def test_scenario_yaml_round_trip_byte_exact(tmp_path, cfg_ex1, cfg_ex2):
    for cfg in (cfg_ex1, cfg_ex2):
        p1 = tmp_path / f"{cfg.name}_a.yaml"
        p2 = tmp_path / f"{cfg.name}_b.yaml"
        cfg.save(p1)
        ScenarioConfig.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()
    # the benchmark's scenario file passes the unknown-key check unchanged
    bench = (Path(__file__).resolve().parents[1] / "perfbench" / "scenarios"
             / "update_grammian.yaml")
    ScenarioConfig.load(bench).save(tmp_path / "bench.yaml")
    assert (tmp_path / "bench.yaml").read_bytes() == bench.read_bytes()


def test_scenario_rejects_escaping_input(cfg_mixed):
    big = SignalGenerator(components=((Term(kind="sin", amp=5.0, freq=1.0),),))
    with pytest.raises(ScenarioFormatError):
        cfg_mixed.with_overrides(w_true=big)


def _with_fast_ripple(cfg, amp=5.0):
    """cfg's w_true plus amp sin(10 pi t): zero at every multiple of
    dt = 0.1, outside the bound between them."""
    comp = cfg.w_true.components[0] + (
        Term(kind="sin", amp=amp, freq=10.0 * np.pi),)
    return SignalGenerator(components=(comp,))


def test_scenario_rejects_input_escaping_between_samples(cfg_mixed):
    """The plant consumes w_true at every fine node and half-node, so the
    bound is checked there, not only at the sample times."""
    rippled = _with_fast_ripple(cfg_mixed)
    ts = cfg_mixed.dt * np.arange(cfg_mixed.n_steps + 1)
    dev = rippled(ts) - cfg_mixed.cw(ts)
    assert np.max(dev[:, 0] ** 2 / cfg_mixed.Kw.matrix[0, 0]) <= 1.0
    with pytest.raises(ScenarioFormatError, match="bounding ellipsoid"):
        cfg_mixed.with_overrides(w_true=rippled)


@pytest.mark.parametrize("chunk", [7, 4096])
def test_input_check_reports_first_escape_across_chunks(monkeypatch,
                                                        cfg_mixed, chunk):
    """A small ripple leaves the bound only near the peak of the declared
    deviation, some thousand fine nodes in; the chunked check reports the
    first escaping node or half-node of the whole grid."""
    import smobserver.scenario as scenario
    monkeypatch.setattr(scenario, "INPUT_CHECK_CHUNK", chunk)
    rippled = _with_fast_ripple(cfg_mixed, amp=0.25)
    h = cfg_mixed.h_fine
    nodes = h * np.arange(cfg_mixed.n_steps * cfg_mixed.n_fine + 1)
    ts = np.sort(np.concatenate([nodes, nodes[:-1] + 0.5 * h]))
    q = (rippled(ts) - cfg_mixed.cw(ts))[:, 0] ** 2 / cfg_mixed.Kw.matrix[0, 0]
    first = ts[np.argmax(q > 1.0 + 1e-9)]
    assert first > 1.0
    with pytest.raises(ScenarioFormatError, match=f"t={first:.4f}"):
        cfg_mixed.with_overrides(w_true=rippled)


def test_cli_rejects_input_escaping_between_samples(tmp_path, cfg_mixed):
    import yaml
    from smobserver.cli import main as cli_main
    d = cfg_mixed.to_dict()
    d["w_true"] = _with_fast_ripple(cfg_mixed).to_dict()
    scen = tmp_path / "ripple.yaml"
    scen.write_text(yaml.safe_dump(d, sort_keys=False), encoding="utf-8")
    assert cli_main(["run", "--scenario", str(scen),
                     "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("K0", [-1e-3 * np.eye(5),
                                np.diag([1e-3] * 5) + np.eye(5, k=1) * 1e-3,
                                np.diag([np.nan] + [1e-3] * 4)],
                         ids=["negative", "asymmetric", "nan"])
def test_cli_rejects_invalid_K0(tmp_path, capsys, K0):
    """example1's empty weak block reads K0 only through a spectral norm, so
    an indefinite or asymmetric K0 used to run to "all rows contained"; a
    nan K0 escaped the check as a failed SVD, not named for K0."""
    import yaml
    from smobserver.cli import main as cli_main
    from smobserver.scenario import example1
    d = example1().to_dict()
    d["K0"] = K0.tolist()
    scen = tmp_path / "bad_K0.yaml"
    scen.write_text(yaml.safe_dump(d, sort_keys=False), encoding="utf-8")
    assert cli_main(["run", "--scenario", str(scen),
                     "--out", str(tmp_path / "o")]) == 3
    assert "K0 must be symmetric positive definite" in capsys.readouterr().err


def test_scenario_checks_diag_shape_on_fine_grid(cfg_mixed):
    Kw = ShapeGenerator(kind="diag", entries=SignalGenerator(components=((
        Term(kind="const", value=0.5), Term(kind="sin", amp=0.2, freq=3.0)),)))
    cfg = cfg_mixed.with_overrides(Kw=Kw)
    assert cfg.Kw.kind == "diag"
    with pytest.raises(ScenarioFormatError):
        cfg.with_overrides(w_true=_with_fast_ripple(cfg_mixed))


def test_scenario_rejects_odd_quadrature(cfg_mixed):
    with pytest.raises(ScenarioFormatError):
        cfg_mixed.with_overrides(quad_substeps=7)


def test_scenario_rejects_bad_format(tmp_path, cfg_mixed):
    import yaml
    d = cfg_mixed.to_dict()
    d["format"] = "something-else"
    p = tmp_path / "bad.yaml"
    p.write_text(yaml.safe_dump(d))
    with pytest.raises(ScenarioFormatError):
        ScenarioConfig.load(p)


def test_input_bounds_and_norms(cfg_ex2):
    w_lo, w_hi = cfg_ex2.Kw.eig_bounds()
    assert (w_lo, w_hi) == (3.0, 5.0)
    bound = input_norm_bound(cfg_ex2)
    ts = np.linspace(0.0, cfg_ex2.horizon, 2000)
    realized = np.max(np.linalg.norm(cfg_ex2.w_true(ts), axis=1))
    assert bound >= realized


def test_input_deriv_bound_dominates_declared(cfg_ex2):
    # |d/dt w_true| componentwise <= amp * freq; bound must dominate the norm
    for order in (0, 1, 2):
        b = input_deriv_bound(cfg_ex2, order)
        declared = np.linalg.norm(cfg_ex2.w_true.deriv_bound(order))
        assert b >= declared - 1e-12


def test_state_norm_bound_dominates_run(cfg_mixed):
    from smobserver.pipeline import simulate_plant
    bound = state_norm_bound(cfg_mixed)
    ts, xs = simulate_plant(cfg_mixed.system, cfg_mixed.xhat0,
                            lambda t: cfg_mixed.w_true(np.asarray(t)),
                            cfg_mixed.dt, 10, cfg_mixed.horizon)
    assert bound >= np.max(np.linalg.norm(xs, axis=1))


def test_y_derivative_bound_dominates_numerical(cfg_mixed):
    """The analytic bound must dominate centered finite differences of the
    realized output up to order l + 1."""
    l = 1
    bound = y_derivative_bound(cfg_mixed, l)
    sys = cfg_mixed.system
    from smobserver.pipeline import simulate_plant
    tgrid, xs = simulate_plant(sys, cfg_mixed.xhat0,
                               lambda t: cfg_mixed.w_true(np.asarray(t)),
                               cfg_mixed.dt, 1000, cfg_mixed.horizon)
    ys = xs @ sys.C.T + cfg_mixed.w_true(tgrid) @ sys.D.T
    dt_f = tgrid[1] - tgrid[0]
    for m in (l, l + 1):
        d = ys.copy()
        for _ in range(m):
            d = np.gradient(d, dt_f, axis=0)
        interior = d[10:-10]
        assert bound >= np.max(np.linalg.norm(interior, axis=1))

