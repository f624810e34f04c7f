#!/usr/bin/env python3
"""Restate the single-sample baseline table of ROADMAP.md ("Recent") as
medians: ``build_design``, ``run_algorithm1`` and a 200-run Monte Carlo
sweep on the two built-in scenarios.

Run from the repository root, one process per scenario::

    python3 perfbench/roadmap_table.py --scenario example1
    python3 perfbench/roadmap_table.py --scenario example2

Each scenario needs a process of its own: ``uio.step_uio`` caches its
discretization by ``id`` of the design, so a design of one scenario can
pick up the cached matrices of a collected design of the other.

Informational only: the gated numbers are the ones ``run.py`` prints.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import run as bench  # pins BLAS threads before numpy is imported

MC_RUNS = 200
REPEATS = 5
SEED = 0


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--scenario", required=True,
                   choices=("example1", "example2"))
    args = p.parse_args(argv)
    bench.import_library()
    from smobserver import pipeline, scenario

    cfg = scenario.BUILTIN_SCENARIOS[args.scenario]()
    design = pipeline.build_design(cfg)           # warm-up
    pipeline.run_algorithm1(cfg, design=design)
    rows = {"design": [], "run": [], "mc": []}
    for _ in range(REPEATS):
        rows["design"].append(timed(lambda: pipeline.build_design(cfg)))
        rows["run"].append(timed(
            lambda: pipeline.run_algorithm1(cfg, design=design)))
        rows["mc"].append(timed(lambda: pipeline.monte_carlo_containment(
            cfg, runs=MC_RUNS, seed=SEED)))
    print(f"| benchmark | build_design | run_algorithm1 | mc {MC_RUNS} runs |")
    print("|---|---|---|---|")
    cells = " | ".join(f"{statistics.median(v):.2f} s" for v in rows.values())
    print(f"| {args.scenario} | {cells} |  (median of {REPEATS})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
