import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thermalbell


@pytest.mark.parametrize("module, names", sorted(thermalbell._EXPORTS.items()))
def test_exports_resolve(module, names):
    assert getattr(thermalbell, module) is importlib.import_module(f"thermalbell.{module}")
    for name in names:
        assert getattr(thermalbell, name) is getattr(getattr(thermalbell, module), name)


def test_runs_without_scipy(tmp_path):
    """No module imports scipy: with every scipy import made to fail, each
    module imports and the Fock engine runs."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['scipy'] = None\n"
        "import thermalbell\n"
        "for info in pkgutil.iter_modules(thermalbell.__path__):\n"
        "    importlib.import_module(f'thermalbell.{info.name}')\n"
        "from thermalbell import cli\n"
        f"sys.exit(cli.main(['quantum', '--m', '1..2', '--out', {str(tmp_path / 'q.json')!r}]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads((tmp_path / "q.json").read_text())["max_c_deviation"] <= 1e-8
