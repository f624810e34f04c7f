"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: ``patched`` swaps each
traced library function for a wrapper in every ``smobserver`` module that
holds it, so a call is seen wherever the name is looked up (``pipeline``,
``hgo``, ``uio`` and ``certificates`` import by name), and puts the
originals back afterwards.  A target the library no longer has is skipped;
the metrics that depend on it are then absent from the report.

Each span is (name, start, end, parent, operation id).  They are kept in
compact arrays while the run lasts and written out once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: traced callables as (span name, module, attribute path inside the module)
TARGETS = [
    ("scenario.y_derivative_bound", "smobserver.scenario", "y_derivative_bound"),
    ("decomposition.build_decomposition", "smobserver.decomposition",
     "build_decomposition"),
    ("decomposition.select_derivative_order", "smobserver.decomposition",
     "select_derivative_order"),
    ("hgo.decay_constants", "smobserver.hgo", "decay_constants"),
    ("hgo.step_hgo", "smobserver.hgo", "step_hgo"),
    ("hgo.assemble_z_hat", "smobserver.hgo", "assemble_z_hat"),
    ("uio.solve_uio_gain", "smobserver.uio", "solve_uio_gain"),
    ("uio.Epsilon1Evaluator.__init__", "smobserver.uio",
     "Epsilon1Evaluator.__init__"),
    ("uio.Epsilon1Evaluator.grid", "smobserver.uio", "Epsilon1Evaluator.grid"),
    ("uio.epsilon1_uniform_bounds", "smobserver.uio", "epsilon1_uniform_bounds"),
    ("uio.step_uio", "smobserver.uio", "step_uio"),
    ("numerics.norm_envelope_grid", "smobserver.numerics", "norm_envelope_grid"),
    ("numerics.compensated_sup", "smobserver.numerics", "compensated_sup"),
    ("weak.propagate", "smobserver.weak", "propagate"),
    ("weak.gamma_terms", "smobserver.weak", "gamma_terms"),
    ("weak.build_Ku", "smobserver.weak", "build_Ku"),
    ("weak.gk_matrix", "smobserver.weak", "gk_matrix"),
    ("weak.update_is_informative", "smobserver.weak", "update_is_informative"),
    ("weak.optimize_beta", "smobserver.weak", "optimize_beta"),
    ("weak.measurement_update", "smobserver.weak", "measurement_update"),
    ("fusion.fuse", "smobserver.fusion", "fuse"),
    ("ellipsoid.axis_bounds", "smobserver.ellipsoid", "axis_bounds"),
    ("ellipsoid.volume", "smobserver.ellipsoid", "volume"),
    ("certificates.certify", "smobserver.certificates", "certify"),
    ("pipeline.build_design", "smobserver.pipeline", "build_design"),
    ("pipeline.simulate_plant", "smobserver.pipeline", "simulate_plant"),
    ("pipeline.run_algorithm1", "smobserver.pipeline", "run_algorithm1"),
    ("pipeline.monte_carlo_containment", "smobserver.pipeline",
     "monte_carlo_containment"),
    ("pipeline.emit_traces", "smobserver.pipeline", "emit_traces"),
    ("pipeline.emit_plot_data", "smobserver.pipeline", "emit_plot_data"),
]


def _resolve(module: str, path: str):
    """(owner, attribute, value) for a dotted path, or None if it is gone."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class Tracer:
    """Records nested spans while its wrappers are installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.op_id = -1
        self.missing = [name for name, mod, path in TARGETS
                        if _resolve(mod, path) is None]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._begin(self.name_id(name))
        try:
            yield
        finally:
            self._finish(i)

    def _wrap(self, name: str, fn):
        nid = self.name_id(name)
        begin, finish = self._begin, self._finish

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(i)
        return wrapper

    @contextmanager
    def patched(self):
        """Install the wrappers in every loaded smobserver module."""
        undo = []
        try:
            for name, mod, path in TARGETS:
                found = _resolve(mod, path)
                if found is None:
                    continue
                owner, attr, orig = found
                wrapped = self._wrap(name, orig)
                if isinstance(owner, type):
                    undo.append((owner, attr, orig))
                    setattr(owner, attr, wrapped)
                    continue
                for modname, m in list(sys.modules.items()):
                    if not modname.startswith("smobserver") or m is None:
                        continue
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            undo.append((m, key, orig))
                            setattr(m, key, wrapped)
            yield
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.int16).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "op": np.frombuffer(self.op, dtype=np.int32).copy()}

    def save(self, path, ops: list) -> None:
        """Write every span plus the op table (kind, cycle) as one .npz."""
        np.savez_compressed(
            path, names=np.array(self.names),
            op_kind=np.array([kind for kind, _ in ops]),
            op_cycle=np.array([cycle for _, cycle in ops], dtype=np.int32),
            **self.arrays())


# -- per-layer metrics -----------------------------------------------------
#
# Each metric sums, per cycle (one setup, one estimate, one mc operation),
# a quantity over the spans whose name is in ``names``.  ``under`` keeps
# only spans whose direct parent has one of those names; ``what`` is the
# span duration ("dur"), its self time ("self") or a count ("calls").

LAYER_METRICS = [
    ("scenario.load_s", "s", ("bench.scenario_load",), None, "dur"),
    ("scenario.y_derivative_bound_s", "s", ("scenario.y_derivative_bound",),
     None, "dur"),
    ("decomposition.build_s", "s", ("decomposition.build_decomposition",
                                    "decomposition.select_derivative_order"),
     ("pipeline.build_design",), "dur"),
    ("hgo.decay_constants_s", "s", ("hgo.decay_constants",), None, "dur"),
    ("hgo.step_calls", "count", ("hgo.step_hgo",), None, "calls"),
    ("hgo.step_s", "s", ("hgo.step_hgo", "hgo.assemble_z_hat"), None, "dur"),
    ("uio.solve_gain_s", "s", ("uio.solve_uio_gain",), None, "dur"),
    ("uio.eps1_envelope_s", "s", ("uio.Epsilon1Evaluator.__init__",
                                  "uio.Epsilon1Evaluator.grid",
                                  "uio.epsilon1_uniform_bounds"),
     ("pipeline.build_design",), "dur"),
    ("uio.step_calls", "count", ("uio.step_uio",), None, "calls"),
    ("uio.step_s", "s", ("uio.step_uio",), None, "dur"),
    ("numerics.norm_envelope_grid_calls", "count",
     ("numerics.norm_envelope_grid",), None, "calls"),
    ("numerics.norm_envelope_grid_s", "s", ("numerics.norm_envelope_grid",),
     None, "dur"),
    ("numerics.compensated_sup_calls", "count", ("numerics.compensated_sup",),
     None, "calls"),
    ("numerics.compensated_sup_s", "s", ("numerics.compensated_sup",), None,
     "dur"),
    ("weak.propagate_calls", "count", ("weak.propagate",), None, "calls"),
    ("weak.propagate_s", "s", ("weak.propagate",), None, "dur"),
    ("weak.gate_s", "s", ("weak.gamma_terms", "weak.build_Ku",
                          "weak.gk_matrix", "weak.update_is_informative"),
     ("pipeline.run_algorithm1",), "dur"),
    ("weak.optimize_beta_calls", "count", ("weak.optimize_beta",), None,
     "calls"),
    ("weak.optimize_beta_s", "s", ("weak.optimize_beta",), None, "dur"),
    ("weak.update_calls", "count", ("weak.measurement_update",), None, "calls"),
    ("weak.update_s", "s", ("weak.measurement_update",), None, "dur"),
    ("fusion.fuse_calls", "count", ("fusion.fuse",), None, "calls"),
    ("fusion.fuse_s", "s", ("fusion.fuse",), None, "dur"),
    ("ellipsoid.axis_bounds_s", "s", ("ellipsoid.axis_bounds",), None, "dur"),
    ("ellipsoid.volume_s", "s", ("ellipsoid.volume",), None, "dur"),
    ("certificates.certify_s", "s", ("certificates.certify",), None, "dur"),
    ("pipeline.design_self_s", "s", ("pipeline.build_design",), None, "self"),
    ("pipeline.simulate_plant_s", "s", ("pipeline.simulate_plant",), None,
     "dur"),
    ("pipeline.run_self_s", "s", ("pipeline.run_algorithm1",), None, "self"),
    ("pipeline.emit_s", "s", ("pipeline.emit_traces", "pipeline.emit_plot_data",
                              "bench.emit_certificate"), None, "dur"),
    ("pipeline.mc_design_s", "s", ("pipeline.build_design",),
     ("pipeline.monte_carlo_containment",), "dur"),
    ("pipeline.mc_nominal_s", "s", ("pipeline.run_algorithm1",),
     ("pipeline.monte_carlo_containment",), "dur"),
    ("pipeline.mc_center_s", "s", ("pipeline.monte_carlo_containment",), None,
     "self"),
]

def layer_metrics(tracer: Tracer, ops: list) -> dict:
    """Median over complete cycles of each metric in LAYER_METRICS, plus
    the layer time of each operation kind as a median over its traced
    operations.

    The layer time of an operation is the time the metrics of
    LAYER_METRICS account for, each instant once: the duration of every
    span a duration metric counts and no such span encloses, plus the self
    time of every span a self-time metric counts and no such span
    encloses.  Time in spans no metric names, and the operation's own glue
    outside library calls, is not covered.

    ``ops`` lists (kind, cycle) per operation id.  Metrics that need a
    traced target the library no longer has are left out.
    """
    a = tracer.arrays()
    ids = tracer._ids
    dur = a["end"] - a["start"]
    par = a["parent"]
    has_par = par >= 0
    child = np.bincount(par[has_par], weights=dur[has_par],
                        minlength=dur.size)
    self_t = dur - child
    par_name = np.where(has_par, a["name"][np.maximum(par, 0)], -1)
    op_cycle = np.array([c for _, c in ops], dtype=np.int64)
    # a run may stop inside a cycle; only complete ones are counted
    kinds = {k for k, _ in ops}
    cycles = np.array([c for c in np.unique(op_cycle)
                       if {k for k, cc in ops if cc == c} == kinds])
    cyc = op_cycle[a["op"]]
    missing = set(tracer.missing)

    out = {}
    by_dur = np.zeros(dur.size, dtype=bool)     # counted by a duration metric
    by_self = np.zeros(dur.size, dtype=bool)    # counted by a self-time one
    for metric, unit, names, under, what in LAYER_METRICS if cycles.size else ():
        if any(n in missing for n in names) or \
                any(n in missing for n in under or ()):
            continue
        mask = np.isin(a["name"], [ids[n] for n in names if n in ids])
        if under is not None:
            mask &= np.isin(par_name, [ids[n] for n in under if n in ids])
        if what == "dur":
            by_dur |= mask
        elif what == "self":
            by_self |= mask
        weights = {"dur": dur, "self": self_t,
                   "calls": np.ones_like(dur)}[what][mask]
        per_cycle = np.bincount(cyc[mask], weights=weights,
                                minlength=int(cycles.max()) + 1)[cycles]
        out[metric] = (float(np.median(per_cycle)), unit)

    # enclosed[i]: some ancestor of span i is counted by a duration metric.
    # A parent starts before its child, so one pass per nesting level
    # settles it.
    enclosed = np.zeros(dur.size, dtype=bool)
    safe_par = np.maximum(par, 0)
    while True:
        nxt = has_par & (by_dur[safe_par] | enclosed[safe_par])
        if np.array_equal(nxt, enclosed):
            break
        enclosed = nxt
    covered = np.where(by_dur & ~enclosed, dur, 0.0) + \
        np.where(by_self & ~by_dur & ~enclosed, self_t, 0.0)
    per_op = np.bincount(a["op"], weights=covered, minlength=len(ops))
    layer_time: dict[str, list] = {}
    for op_id, (kind, _) in enumerate(ops):
        layer_time.setdefault(kind, []).append(per_op[op_id])
    return {"metrics": out,
            "layer_time": {k: float(np.median(v)) for k, v in layer_time.items()}}


def median_calls(tracer: Tracer, ops: list, kind: str, name: str):
    """Median over the traced operations of one kind of the number of
    ``name`` spans each opened; None if that target is missing."""
    if name in tracer.missing:
        return None
    a = tracer.arrays()
    op_ids = [i for i, (k, _) in enumerate(ops) if k == kind]
    hits = a["op"][a["name"] == tracer.name_id(name)]
    return float(np.median([np.count_nonzero(hits == i) for i in op_ids]))
