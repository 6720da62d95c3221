"""Smoke tests of the example scripts: each runs in a fresh interpreter and
prints what it promises."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import thermalbell

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(name: str, *args: str, **env_vars: str) -> str:
    src = str(Path(thermalbell.__file__).resolve().parents[1])
    env = {**os.environ, **env_vars,
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
    """The script prints its visibility table once, one row per m, and
    leaves nothing in the temporary directory it made its stack in."""
    out = _run_script("reproduce_visibility_curve.py", "--frames", "2000", "--m-max", "2",
                      TMPDIR=str(tmp_path))
    rows = re.findall(r"^ +(\d+) +(\d\.\d{4}) +(\d\.\d{4}) +(\d\.\d{4})$", out, re.M)
    assert [int(m) for m, *_ in rows] == [1, 2]
    for m, v_theory, v_hat, stderr in rows:
        assert float(v_theory) == pytest.approx(int(m) / (int(m) + 2), abs=5e-5)
        assert out.count(v_hat) == 1
    assert list(tmp_path.iterdir()) == []
