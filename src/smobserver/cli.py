"""Command-line interface: run scenarios, demo the built-in benchmarks,
evaluate boundedness certificates, and sweep Monte Carlo containment.

Exit codes: 0 on success, 1 on containment or envelope violation, 2 on a
certificate inconsistency, 3 on bad input, including a system or scenario
whose design or certificate meets a singular or non-convergent linear
algebra step.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np
import yaml

from .errors import ObserverError
from .pipeline import (certify_scenario, emit_plot_data, emit_traces,
                       monte_carlo_containment, run_algorithm1)
from .scenario import BUILTIN_SCENARIOS, ScenarioConfig

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CERTIFICATE = 2
EXIT_BAD_INPUT = 3


def _add_substep_overrides(p: argparse.ArgumentParser) -> None:
    p.add_argument("--substeps", type=int, default=None,
                   help="input sampling substeps per sample interval")
    p.add_argument("--quad-substeps", type=int, default=None,
                   help="quadrature substeps per sample interval (even)")
    p.add_argument("--hgo-substeps", type=int, default=None,
                   help="input sampling substeps per sample interval")


def _apply_overrides(cfg: ScenarioConfig, args) -> ScenarioConfig:
    over = {}
    if getattr(args, "substeps", None) is not None:
        over["plant_substeps"] = args.substeps
    if getattr(args, "quad_substeps", None) is not None:
        over["quad_substeps"] = args.quad_substeps
    if getattr(args, "hgo_substeps", None) is not None:
        over["hgo_substeps"] = args.hgo_substeps
    return cfg.with_overrides(**over) if over else cfg


def _run_and_emit(cfg: ScenarioConfig, out_dir: str,
                  ellipse_axes=None) -> int:
    os.makedirs(out_dir, exist_ok=True)
    run = run_algorithm1(cfg)
    emit_traces(run.traces, os.path.join(out_dir, "traces.csv"))
    emit_plot_data(run, out_dir, ellipse_axes=ellipse_axes)
    if run.report is not None:
        with open(os.path.join(out_dir, "certificate.yaml"), "w",
                  encoding="utf-8") as fh:
            yaml.safe_dump(run.report.to_dict(), fh, sort_keys=False)
    n = len(run.traces)
    print(f"{cfg.name}: {n} rows, worst quadratic form "
          f"{run.worst_q:.6g}, eps1 margin {run.eps1_margin:.6g}")
    if not run.containment_ok:
        bad = run.traces.t[~run.traces.contained].tolist()
        print(f"CONTAINMENT VIOLATION at t = {bad}", file=sys.stderr)
        return EXIT_VIOLATION
    if not run.eps1_ok:
        print("ENVELOPE VIOLATION: ||x1 - x1hat|| exceeded eps1",
              file=sys.stderr)
        return EXIT_VIOLATION
    print(f"all rows contained; traces written to {out_dir}")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _apply_overrides(ScenarioConfig.load(args.scenario), args)
    return _run_and_emit(cfg, args.out)


def cmd_demo(args) -> int:
    cfg = BUILTIN_SCENARIOS[f"example{args.example}"]()
    cfg = _apply_overrides(cfg, args)
    # the second benchmark's interesting geometry lives in the (x2, x3) plane
    axes = (1, 2) if args.example == 2 else None
    return _run_and_emit(cfg, args.out, ellipse_axes=axes)


def cmd_certify(args) -> int:
    cfg = _apply_overrides(ScenarioConfig.load(args.scenario), args)
    rep, schedule = certify_scenario(cfg)
    print(yaml.safe_dump(rep.to_dict(), sort_keys=False))
    if rep.case == "none":
        print(f"certificate unavailable: {rep.reason}", file=sys.stderr)
        return EXIT_CERTIFICATE
    # cross-check the certificate against the realized shapes
    problem = rep.shape_inconsistency(schedule.P2, schedule.shape)
    if problem:
        print(f"certificate inconsistency at {problem}", file=sys.stderr)
        return EXIT_CERTIFICATE
    print(f"certificate case {rep.case}: consistent with the realized run")
    return EXIT_OK


def cmd_mc(args) -> int:
    cfg = _apply_overrides(ScenarioConfig.load(args.scenario), args)
    seed = cfg.seed if args.seed is None else args.seed
    summary = monte_carlo_containment(cfg, runs=args.runs, seed=seed,
                                      boundary=args.boundary)
    printable = {k: v for k, v in summary.items() if k != "per_run_worst_q"}
    print(yaml.safe_dump(printable, sort_keys=False))
    if summary["runs"] and (summary["containment_rate"] < 1.0
                            or summary["eps1_violations"] > 0):
        print("CONTAINMENT VIOLATION in Monte Carlo sweep", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smobserver",
        description="Guaranteed set-membership state estimation for linear "
                    "systems with unknown-but-bounded inputs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a scenario file and emit traces")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    _add_substep_overrides(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("demo", help="run a built-in benchmark scenario")
    p.add_argument("--example", type=int, choices=(1, 2), required=True)
    p.add_argument("--out", required=True)
    _add_substep_overrides(p)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("certify", help="evaluate the boundedness certificate")
    p.add_argument("--scenario", required=True)
    _add_substep_overrides(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("mc", help="Monte Carlo containment sweep")
    p.add_argument("--scenario", required=True)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="sweep seed (default: the scenario's seed)")
    p.add_argument("--boundary", action="store_true",
                   help="sample initial states on the ellipsoid boundary")
    _add_substep_overrides(p)
    p.set_defaults(func=cmd_mc)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ObserverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except np.linalg.LinAlgError as exc:
        print("error: linear algebra failed: " + " ".join(str(exc).split()),
              file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
