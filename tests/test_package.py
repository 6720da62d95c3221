import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports this package from src."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


# The public names of each module that callers reach as
# ``from thermalbell import <module>`` and then ``<module>.<name>``.
PUBLIC = {
    "analytic": [
        "CorrelationSet", "ProbabilitySet", "g1", "g2_spe_set", "g2_tls_set",
        "gm1_tls_normalized", "gm1_tls_set", "max_g2_visibility",
        "probabilities_four", "probabilities_six", "visibility_tls",
        "visibility_tls_exact",
    ],
    "bell": [
        "AngleSet", "BellModel", "BellReport", "Bound", "angle_scan",
        "bell_statistic", "ch74", "default_angles", "detector_phases",
        "min_violating_m", "threshold_visibility",
    ],
    "correlate": [
        "CorrelationCurve", "FrameBellReport", "VisibilityEstimate",
        "bell_from_frames", "estimate_gm1", "fit_visibility",
    ],
    "fock": [
        "TwoModeState", "cm_coefficient", "cross_corr", "expect_gm1",
        "project_m", "spe_state", "suggest_dim", "thermal_state",
    ],
    "permanents": [
        "PermanentCorrelation", "coherence_matrix", "gm1_from_permanent",
        "permanent",
    ],
    "sources": ["SourceKind", "SourceModel", "coherent", "spe", "tls"],
    "speckle": ["FrameSet", "Geometry", "generate_frames", "photonize"],
}


@pytest.mark.parametrize("module, names", sorted(PUBLIC.items()))
def test_exports_resolve(module, names):
    """``from thermalbell import <module>`` gives the submodule, and each of
    its public names is defined there."""
    imported = importlib.import_module(f"thermalbell.{module}")
    namespace = {}
    exec(f"from thermalbell import {module} as found", namespace)
    assert namespace["found"] is imported
    for name in names:
        assert hasattr(imported, name), name


def test_import_loads_nothing_and_every_module_resolves():
    """``import thermalbell`` loads no submodule and no numpy, and
    ``from thermalbell import <module>`` resolves for every module the
    package holds."""
    code = (
        "import importlib, pkgutil, sys\n"
        "import thermalbell\n"
        "loaded = sorted(n for n in sys.modules if n.startswith('thermalbell.'))\n"
        "loaded += [n for n in ('numpy',) if n in sys.modules]\n"
        "assert not loaded, loaded\n"
        "names = [info.name for info in pkgutil.iter_modules(thermalbell.__path__)]\n"
        "assert 'cli' in names and 'correlate' in names, names\n"
        "for name in names:\n"
        "    exec(f'from thermalbell import {name} as module')\n"
        "    assert module is importlib.import_module(f'thermalbell.{name}'), name\n"
    )
    done = _run_fresh(code)
    assert done.returncode == 0, done.stderr


def test_runs_without_scipy(tmp_path):
    """No module imports scipy: with every scipy import made to fail, each
    module imports and the Fock engine runs."""
    code = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['scipy'] = None\n"
        "import thermalbell\n"
        "for info in pkgutil.iter_modules(thermalbell.__path__):\n"
        "    importlib.import_module(f'thermalbell.{info.name}')\n"
        "from thermalbell import cli\n"
        f"sys.exit(cli.main(['quantum', '--m', '1..2', '--out', {str(tmp_path / 'q.json')!r}]))\n"
    )
    done = _run_fresh(code)
    assert done.returncode == 0, done.stderr
    assert json.loads((tmp_path / "q.json").read_text())["max_c_deviation"] <= 1e-8
