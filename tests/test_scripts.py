"""Smoke tests of the example scripts: each runs in a fresh interpreter and
prints what it promises."""

import os
import subprocess
import sys
from pathlib import Path

import thermalbell

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(name: str, *args: str) -> str:
    src = str(Path(thermalbell.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(SCRIPTS / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_bell_violation_demo():
    out = _run_script("bell_violation_demo.py")
    assert "smallest violating m: 5" in out
    assert "angle scan at step pi/12: max statistic +0.207107" in out
    assert "min statistic -1.207107" in out


def test_reproduce_visibility_curve(tmp_path):
    out = _run_script("reproduce_visibility_curve.py", "--frames", "2000", "--m-max", "2",
                      "--workdir", str(tmp_path))
    assert "m=1: V_hat = " in out
    assert "m=2: V_hat = " in out
    assert "m=3" not in out
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "frames.spkl", "frames.spkl.meta.json", "run_curve_m1.csv", "run_curve_m2.csv",
        "run_report.json", "run_report.json.meta.json", "run_visibility.csv"]
