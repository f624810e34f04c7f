#!/usr/bin/env python3
"""smobserver benchmark: one closed-loop workload per process.

Run from the repository root::

    python3 perfbench/run.py --workload aircraft-mc --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

One client issues operations one after another, each after the previous
one has completed (a closed loop).  The operations are three user jobs on
the workload's scenario:

* setup    -- load or construct the scenario, then ``build_design``;
* estimate -- what ``smobserver run`` does after setup: ``run_algorithm1``
  with the certificate, then ``emit_traces``, ``emit_plot_data`` and
  ``certificate.yaml`` into a scratch directory;
* mc       -- one ``monte_carlo_containment(cfg, runs=R, seed=<seed>)``
  sweep, which builds its own design and nominal pass as ``smobserver mc``
  does.

A run goes round setup, estimate, mc, so every timing gets the same
number of samples, and stops before the operation that would end after
``--seconds``.  Each operation is timed in wall seconds and in reference
seconds (see ``HostClock``); the end-to-end timings are reference seconds,
because the host's speed swings by up to 2x within seconds.  Every
operation's output is checked; an operation that raises or fails a check
counts as failed and is never retried.  The seed
only reaches the Monte Carlo sweep: the scenarios are fixed, so setup and
estimate do identical work on every seed.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end ones.  With ``--trace 1`` each operation runs once
untraced and once traced (alternating which goes first); the metrics are
the per-layer ones from the traced operations plus the tracing overhead,
and the spans are written to ``.perfbench_out/spans-<workload>.npz``.
``--workload all`` runs every workload in a fresh process of its own and
prints their metrics prefixed with the workload name.
"""

from __future__ import annotations

import os

# The plant matrices are at most 5x5: extra BLAS threads only add overhead
# and scheduling noise, so the benchmark pins BLAS to one thread.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import gc
import itertools
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: tr(P_k) of the fused ellipsoid at every sample time, one float per line,
#: as run_algorithm1 gave it when the benchmark was written
REFERENCE_DIR = BENCH_DIR / "reference"
#: relative tolerance of each tr(P_k) against its stored reference
TRP_RTOL = 1e-6
KINDS = ("setup", "estimate", "mc")
#: each kind runs at least this often, whatever --seconds says; a traced
#: step runs the operation twice, untraced and traced
MIN_STEPS = {False: 3, True: 1}
CASE_CODES = {"none": 0, "lemma6": 6, "lemma7": 7}
#: HostClock samples the host's speed this often while an operation runs
PROBE_PERIOD_S = 0.02
#: reference speed: the one at which a warm probe() takes this long, about
#: what it takes on the 2-vCPU Xeon VM the benchmark was written on
PROBE_REF_S = 1.5e-4


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str       # a built-in name, or a YAML file in this directory
    mc_runs: int
    case: str           # certificate case the estimate must report
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        name="aircraft-mc", scenario="example1", mc_runs=200, case="lemma6",
        why="example1 (n1=5, n2=0, 300 steps), large MC batch: the batched "
            "center loop and the design stage do the work; the weak block, "
            "update and Grammian certificate never run"),
    Workload(
        name="weak-horizon", scenario="example2", mc_runs=20, case="lemma6",
        why="example2 (n1=1, n2=2, 500 steps, update gated off, declared "
            "lemma6 certificate), small MC batch: per-step weak propagation "
            "and the per-substep loop dominate the estimate"),
    Workload(
        name="update-grammian", scenario="scenarios/update_grammian.yaml",
        mc_runs=100, case="lemma7",
        why="the two-state mixed system at a 30 s horizon, loaded from YAML: "
            "the update fires every step, so optimize_beta, measurement_update, "
            "the lemma7 certificate and replayed MC gains run"),
)}


def import_library():
    """Import smobserver from this checkout's src/, or stop with exit 1."""
    if not (SRC / "smobserver" / "__init__.py").is_file():
        sys.exit(f"perfbench: no smobserver sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import smobserver
    if Path(smobserver.__file__).resolve().parent != SRC / "smobserver":
        sys.exit(f"perfbench: imported smobserver from {smobserver.__file__}, "
                 f"not from {SRC}")


def probe() -> float:
    """Fixed work of the kinds the library does: a pure-Python loop and
    products of tiny arrays, as in its per-step code, and elementwise
    functions of a 1024-point vector, as in its design-time grids.
    Without the vector part the probe slows more than the operations do
    in the host's slow phases, and the reference time of ``setup`` and
    ``estimate`` on update-grammian fell as the wall time rose."""
    import numpy as np
    v, m = np.arange(4.0), np.eye(3) * 0.5
    grid = np.linspace(0.0, 1.0, 1024)
    s = 0.0
    for j in range(300):
        s += (j * 0.5) ** 0.5
    for _ in range(20):
        s += float(v @ v) + float((m @ m)[0, 0])
    for _ in range(3):
        s += float(np.exp(grid).sum())
    return s


class HostClock:
    """Times an operation in wall seconds and in reference seconds.

    The benchmark's host is shared, and its speed swings by up to 2x within
    seconds, in phases that a median over a few operations does not remove.
    So while an operation runs, a timer signal samples the host's speed
    every PROBE_PERIOD_S: it runs probe() twice and times the second, warm,
    run.  The wall time is the operation's time less the probes' own; the
    reference time is the wall time times the mean over the samples of
    PROBE_REF_S / probe time, i.e. the time the operation would take at
    the speed at which a probe takes PROBE_REF_S.  The probe never calls
    the library and runs warm, so a change to the library moves both times
    alike; the probes add 1 to 2 % to the operation's wall time.
    """

    def __init__(self):
        self.probes: list[float] = []
        self.spent = 0.0

    def _sample(self, *_):
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        probe()
        t2 = time.perf_counter()
        self.probes.append(t2 - t1)
        self.spent += t2 - t0

    def time(self, fn):
        """(fn(), wall seconds, reference seconds)."""
        self.probes, self.spent = [], 0.0
        old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = time.perf_counter() - t0 - self.spent
            signal.signal(signal.SIGALRM, old)
        if not self.probes:  # an operation shorter than PROBE_PERIOD_S
            self._sample()
        speed = statistics.fmean(PROBE_REF_S / p for p in self.probes)
        return result, wall, wall * speed


class NoTracer:
    """Stands in for spans.Tracer in untraced operations."""

    def span(self, name):
        return nullcontext()


# -- the three operations --------------------------------------------------
#
# Library calls go through the module objects (pipeline.build_design, ...)
# so that the traced run's wrappers see them.

def load_scenario(wl: Workload):
    from smobserver import scenario
    if wl.scenario in scenario.BUILTIN_SCENARIOS:
        return scenario.BUILTIN_SCENARIOS[wl.scenario]()
    return scenario.ScenarioConfig.load(BENCH_DIR / wl.scenario)


def op_setup(wl: Workload, tracer):
    from smobserver import pipeline
    with tracer.span("bench.scenario_load"):
        cfg = load_scenario(wl)
    return cfg, pipeline.build_design(cfg)


def op_estimate(cfg, design, out_dir: Path, tracer):
    import yaml
    from smobserver import pipeline
    run = pipeline.run_algorithm1(cfg, design=design)
    pipeline.emit_traces(run.traces, out_dir / "traces.csv")
    pipeline.emit_plot_data(run, out_dir)
    with tracer.span("bench.emit_certificate"):
        with open(out_dir / "certificate.yaml", "w", encoding="utf-8") as fh:
            yaml.safe_dump(run.report.to_dict(), fh, sort_keys=False)
    return run


def op_mc(cfg, runs: int, seed: int):
    from smobserver import pipeline
    return pipeline.monte_carlo_containment(cfg, runs=runs, seed=seed)


# -- output checks ---------------------------------------------------------

def certificate_problem(run) -> str | None:
    """The cross-check ``smobserver certify`` makes: every weak-block shape
    eigenvalue lies in [p2_lo, p2_hi]."""
    import numpy as np
    rep = run.report
    for k, ws in enumerate(run.weak_states):
        if ws.P2hat.size == 0:
            continue
        lam = np.linalg.eigvalsh(ws.P2hat)
        if rep.p2_lo > 0.0 and lam[0] < rep.p2_lo * (1.0 - 1e-9):
            return f"step {k}: lambda_min {lam[0]:.6g} < p2_lo {rep.p2_lo:.6g}"
        if np.isfinite(rep.p2_hi) and lam[-1] > rep.p2_hi * (1.0 + 1e-9):
            return f"step {k}: lambda_max {lam[-1]:.6g} > p2_hi {rep.p2_hi:.6g}"
    return None


def mean_trP(run) -> float:
    return statistics.fmean(row.trP for row in run.traces)


class Checker:
    """Applies the output checks and counts attempts and failed operations.

    An operation fails once, whatever number of its checks fail.
    """

    def __init__(self, wl: Workload):
        self.wl = wl
        self.attempted = 0
        self.failures: list[str] = []
        self.first_traces: bytes | None = None
        self.reference_trP = [
            float(line) for line in
            (REFERENCE_DIR / f"{wl.name}.trP").read_text().split()]

    def fail(self, op: str, problems: list) -> None:
        if problems:
            self.failures.append(f"{op}: " + "; ".join(problems))

    def estimate(self, run, out_dir: Path, traced: bool) -> None:
        """The first estimate is untraced, so comparing every estimate with
        the first also checks traced against untraced output."""
        wl, problems = self.wl, []
        if not run.ok:
            problems.append(f"run not ok (eps1_ok={run.eps1_ok}, "
                            f"containment_ok={run.containment_ok})")
        if run.report.case != wl.case:
            problems.append(f"certificate case {run.report.case}, "
                            f"expected {wl.case}")
        inconsistency = certificate_problem(run)
        if inconsistency:
            problems.append(f"certificate inconsistency at {inconsistency}")
        data = (out_dir / "traces.csv").read_bytes()
        if self.first_traces is None:
            self.first_traces = data
        elif data != self.first_traces:
            problems.append(("traced " if traced else "")
                            + "traces.csv differs from the first repeat")
        # every sample, not only the mean: on example1 and example2 the
        # mean is almost all the peaking transient of the first samples.
        # tr(P_k) > 0, so this also bounds mean_trP by the same rtol.
        trP = [row.trP for row in run.traces]
        ref = self.reference_trP
        if len(trP) != len(ref):
            problems.append(f"{len(trP)} samples, reference has {len(ref)}")
        else:
            off = [k for k, (a, b) in enumerate(zip(trP, ref))
                   if abs(a - b) > TRP_RTOL * b]
            if off:
                k = off[0]
                problems.append(f"trP off the reference at {len(off)} "
                                f"samples, first k={k}: {trP[k]!r} vs {ref[k]!r}")
        self.fail("estimate", problems)

    def mc(self, summary: dict) -> None:
        problems = []
        if summary["runs"] != self.wl.mc_runs:
            problems.append(f"{summary['runs']} runs, asked for "
                            f"{self.wl.mc_runs}")
        if summary["containment_rate"] < 1.0:
            problems.append(f"containment rate {summary['containment_rate']}")
        if summary["eps1_violations"] > 0:
            problems.append(f"{summary['eps1_violations']} eps1 violations")
        self.fail("mc", problems)

    def roundtrip(self) -> None:
        """A YAML scenario must reproduce its own bytes through load/save."""
        from smobserver.scenario import BUILTIN_SCENARIOS, ScenarioConfig
        if self.wl.scenario in BUILTIN_SCENARIOS:
            return
        self.attempted += 1
        src = BENCH_DIR / self.wl.scenario
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            copy = Path(tmp) / "scenario.yaml"
            try:
                ScenarioConfig.load(src).save(copy)
            except Exception as exc:  # counted like any failed operation
                self.fail("roundtrip", [f"{type(exc).__name__}: {exc}"])
                return
            if copy.read_bytes() != src.read_bytes():
                self.fail("roundtrip", [f"{src.name} does not round-trip "
                                        "through ScenarioConfig.save/load"])


# -- the closed loop -------------------------------------------------------

class Loop:
    """Runs operations, times them, and feeds the checker."""

    def __init__(self, wl: Workload, seed: int, out_dir: Path, checker,
                 tracer=None):
        self.wl, self.seed, self.out_dir = wl, seed, out_dir
        self.check = checker
        self.tracer = tracer
        self.clock = HostClock()
        # reference seconds of the untraced operations, then wall seconds
        # of the untraced and of the traced ones
        self.times: dict[str, list] = {k: [] for k in KINDS}
        self.wall_times: dict[str, list] = {k: [] for k in KINDS}
        self.traced_times: dict[str, list] = {k: [] for k in KINDS}
        self.ops: list = []          # (kind, cycle) per traced operation id
        self.last_run = None

    def _call(self, kind: str, cycle: int, traced: bool, fn):
        """Time fn(tracer); a raise counts as a failed operation."""
        self.check.attempted += 1
        gc.collect()
        try:
            if traced:
                self.tracer.op_id = len(self.ops)
                self.ops.append((kind, cycle))
                with self.tracer.patched(), self.tracer.span(f"op.{kind}"):
                    result, wall, _ = self.clock.time(
                        lambda: fn(self.tracer))
            else:
                result, wall, ref = self.clock.time(lambda: fn(NoTracer()))
        except Exception as exc:  # counted, reported, never retried
            self.check.fail(kind, [f"{type(exc).__name__}: {exc}"])
            return None
        if traced:
            self.traced_times[kind].append(wall)
        else:
            self.wall_times[kind].append(wall)
            self.times[kind].append(ref)
        return result

    def setup(self, cycle, traced=False):
        return self._call("setup", cycle, traced,
                          lambda tr: op_setup(self.wl, tr))

    def estimate(self, cycle, made, traced=False):
        if made is None:
            self.check.attempted += 1
            self.check.fail("estimate", ["no design: setup failed"])
            return
        cfg, design = made
        run = self._call("estimate", cycle, traced,
                         lambda tr: op_estimate(cfg, design, self.out_dir, tr))
        if run is not None:
            self.check.estimate(run, self.out_dir, traced)
            self.last_run = run

    def mc(self, cycle, made, traced=False):
        if made is None:
            self.check.attempted += 1
            self.check.fail("mc", ["no scenario: setup failed"])
            return
        summary = self._call(
            "mc", cycle, traced,
            lambda tr: op_mc(made[0], self.wl.mc_runs, self.seed))
        if summary is not None:
            self.check.mc(summary)


def measure(wl: Workload, seed: int, seconds: float, trace: bool,
            out_dir: Path):
    """Run operations until the next one would end after ``seconds``, once
    each kind has run MIN_STEPS times."""
    from spans import Tracer
    checker = Checker(wl)
    checker.roundtrip()
    loop = Loop(wl, seed, out_dir, checker, Tracer() if trace else None)
    steps = dict.fromkeys(KINDS, 0)
    longest = dict.fromkeys(KINDS, 0.0)
    start = time.perf_counter()
    made = None
    for step in itertools.count():
        kind = KINDS[step % len(KINDS)]
        if min(steps.values()) >= MIN_STEPS[trace] and \
                time.perf_counter() - start + longest[kind] > seconds:
            break
        cycle = step // len(KINDS)
        t0 = time.perf_counter()
        # the first estimate is untraced: it is the reference traces.csv
        order = (False, True) if cycle % 2 == 0 else (True, False)
        for traced in (order if trace else (False,)):
            if kind == "setup":
                made = loop.setup(cycle, traced)
            elif kind == "estimate":
                loop.estimate(cycle, made, traced)
            else:
                loop.mc(cycle, made, traced)
        took = time.perf_counter() - t0
        longest[kind] = max(longest[kind], took)
        steps[kind] += 1
    return loop, checker, steps


# -- reporting -------------------------------------------------------------

def median_line(name: str, values: list, unit: str) -> str:
    """Median with its sample count; a tail percentile only where at least
    ten samples lie beyond it."""
    med = statistics.median(values)
    line = f"  {name:<16} {med:.6g} {unit}  (median of {len(values)})"
    if len(values) >= 100:
        p90 = statistics.quantiles(values, n=10)[-1]
        line += f", p90 {p90:.6g}"
    return line


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def environment(wl: Workload, seed: int) -> dict:
    import numpy
    import scipy
    return {"workload": wl.name, "seed": seed, "mc_runs": wl.mc_runs,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": int(BLAS_THREADS), "src_lines": src_lines()}


def report_untraced(loop: Loop, wl: Workload) -> dict:
    t = loop.times
    series = {"setup_s": (t["setup"], "s"),
              "estimate_s": (t["estimate"], "s"),
              "mc_runs_per_s": ([wl.mc_runs / s for s in t["mc"]], "runs/s")}
    print(f"{wl.name}: end-to-end (Monte Carlo batch R = {wl.mc_runs}); "
          f"timings in reference seconds, see HostClock")
    metrics = {}
    for name, (values, unit) in series.items():
        if values:  # empty only if every attempt failed
            metrics[name] = (statistics.median(values), unit)
            print(median_line(name, values, unit))
    walls = " / ".join(f"{statistics.median(v):.4g} s"
                       for v in loop.wall_times.values() if v)
    print(f"  (wall-clock medians, setup / estimate / mc: {walls})")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = (peak_mb, "MB")
    print(f"  {'peak_rss_mb':<16} {peak_mb:.6g} MB")
    if loop.last_run is not None:
        metrics["mean_trP"] = (mean_trP(loop.last_run), "state2")
        print(f"  {'mean_trP':<16} {metrics['mean_trP'][0]!r} state2")
    return metrics


def report_traced(loop: Loop, wl: Workload, seed: int) -> dict:
    from spans import layer_metrics, median_calls
    res = layer_metrics(loop.tracer, loop.ops)
    metrics = dict(res["metrics"])
    # updates per sample step of the estimate's run
    updates = median_calls(loop.tracer, loop.ops, "estimate",
                           "weak.measurement_update")
    if updates is not None and loop.last_run is not None:
        metrics["weak.update_ratio"] = (
            updates / loop.last_run.alphas.size, "ratio")
    if loop.last_run is not None:
        metrics["certificates.case"] = (
            float(CASE_CODES.get(loop.last_run.report.case, -1)), "lemma")
    print(f"{wl.name}: per layer (median per cycle over "
          f"{len(set(c for _, c in loop.ops))} traced cycles)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<38} {value:.6g} {unit}")
    print(f"{wl.name}: tracing overhead and span coverage")
    for kind in ("setup", "estimate", "mc"):
        if not loop.wall_times[kind] or not loop.traced_times[kind]:
            continue
        plain = statistics.median(loop.wall_times[kind])
        traced = statistics.median(loop.traced_times[kind])
        overhead = traced / plain - 1.0
        covered = res["layer_time"].get(kind, 0.0) / plain
        metrics[f"trace.{kind}_overhead"] = (overhead, "ratio")
        metrics[f"trace.{kind}_covered"] = (covered, "ratio")
        print(f"  {kind:<9} untraced {plain:.4g} s, traced {traced:.4g} s, "
              f"overhead {overhead:+.3f}; layer spans cover "
              f"{covered:.3f} of the untraced time")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{wl.name}.npz"
    loop.tracer.save(path, loop.ops)
    print(f"  {len(loop.tracer.start)} spans written to "
          f"{path.relative_to(ROOT)}; seed {seed}")
    return metrics


def run_one(args) -> int:
    import_library()
    sys.path.insert(0, str(BENCH_DIR))
    wl = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_DIR))
    try:
        loop, checker, steps = measure(wl, args.seed, args.seconds,
                                        bool(args.trace), out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    metrics = (report_traced(loop, wl, args.seed) if args.trace
               else report_untraced(loop, wl))
    fail_rate = len(checker.failures) / checker.attempted
    print(f"  fail_rate {fail_rate:.6g} ratio "
          f"({len(checker.failures)} of {checker.attempted} operations)")
    for f in checker.failures:
        print(f"  FAILED {f}")
    info = environment(wl, args.seed)
    info.update(steps=steps, fail_rate=fail_rate,
                samples={k: len(v) for k, v in loop.times.items()},
                times={k: [round(t, 4) for t in v]
                       for k, v in loop.times.items()},
                wall_times={k: [round(t, 4) for t in v]
                            for k, v in loop.wall_times.items()})
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, as a CLI invocation would be."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited {proc.returncode}")
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
