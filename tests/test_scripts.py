"""Smoke test of the runnable experiments in scripts/: each runs to exit 0
and writes the files it promises."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300, check=False)


@pytest.mark.parametrize("script,args,written,says", [
    ("run_example1.py", ("--mc-runs", "2"),
     {"traces.csv", "plot_volume.csv", "plot_bounds.csv"},
     "monte carlo (2 runs): containment rate 1.0"),
    ("run_example2.py", (),
     {"traces.csv", "plot_volume.csv", "plot_bounds.csv",
      "plot_ellipses_x1x2.csv"},
     "containment OK"),
    ("certify_example2.py", (), None,
     "certificate consistent with the realized run"),
])
def test_script_runs_and_writes_its_outputs(tmp_path, script, args, written,
                                            says):
    out = tmp_path / "out"
    if written is not None:
        args = args + ("--out", str(out))
    proc = run_script(script, *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert says in proc.stdout
    if written is not None:
        assert {p.name for p in out.iterdir()} == written
