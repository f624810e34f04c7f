"""Smoke tests of the benchmark harness: a zero-second run of one workload
exits 0 and ends with the JSON summary line the benchmark reads, all
operations correct; and every library function the traced run times still
exists, so no per-layer metric silently drops out."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

METRICS = {"setup_s", "estimate_s", "mc_runs_per_s", "peak_rss_mb",
           "mean_trP"}


def test_perfbench_prints_its_json_summary(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "update-grammian", "--seed", "0", "--seconds", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
        check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert METRICS <= set(summary["metrics"])


def test_every_traced_target_exists():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from spans import Tracer
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    assert Tracer().missing == []
