import contextlib
import importlib
import io
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
        "AngleSet", "BellModel", "BellReport", "Bound", "angle_scan", "angle_set",
        "bell_statistic", "ch74", "default_angles", "detector_phases",
        "min_violating_m", "threshold_visibility",
    ],
    "correlate": [
        "Analysis", "CorrelationCurve", "FrameBellReport", "VisibilityEstimate",
        "analyze", "bell_from_frames", "estimate_gm1", "fit_visibility",
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


def test_kernels_named():
    """Where numpy's OpenBLAS is found its core name is too; the SIMD level
    is one of numpy's x86 levels, or None where numpy names none."""
    from thermalbell import blas
    kernels = blas.kernels()
    assert set(kernels) == {"blas_core", "numpy_simd"}
    if blas.threads() is not None:
        assert kernels["blas_core"]
    assert kernels["numpy_simd"] in (None, "X86_V2", "X86_V3", "X86_V4")


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


# The closed-form commands: their work is arithmetic, so they run without
# numpy, writing to stdout or to --out alike.
NUMPY_FREE = [
    ["bell", "--four-term", "--m", "5", "--bound", "upper"],
    ["analytic", "--m", "1..8"],
]


def test_closed_form_commands_run_without_numpy(tmp_path):
    """With every numpy import made to fail, ``bell`` without a scan and
    ``analytic --curve visibility`` give the bytes of a normal run, and
    the scan, which needs arrays, fails."""
    from thermalbell import cli

    runs = [(argv, out) for i, argv in enumerate(NUMPY_FREE)
            for out in (None, f"out{i}.txt")]
    code = (
        "import contextlib, io, os, sys\n"
        "sys.modules['numpy'] = None\n"
        "from thermalbell import cli\n"
        f"os.chdir({str(tmp_path / 'poisoned')!r})\n"
        f"for i, (argv, out) in enumerate({runs!r}):\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        assert cli.main(argv + (['--out', out] if out else [])) == 0, argv\n"
        "    if out is None:\n"
        "        with open(f'stdout{i}.txt', 'w') as fh:\n"
        "            fh.write(buf.getvalue())\n"
        "try:\n"
        "    cli.main(['bell', '--four-term', '--m', '5', '--scan-step', '0.5'])\n"
        "except ImportError:\n"
        "    print('scan needs numpy')\n"
    )
    for name in ("poisoned", "normal"):
        (tmp_path / name).mkdir()
    done = _run_fresh(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "scan needs numpy\n"

    normal = tmp_path / "normal"
    for i, (argv, out) in enumerate(runs):
        if out is None:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert cli.main(argv) == 0
            (normal / f"stdout{i}.txt").write_text(buf.getvalue())
        else:
            assert cli.main([*argv, "--out", str(normal / out)]) == 0
    names = sorted(p.name for p in normal.iterdir() if not p.name.endswith(".meta.json"))
    assert len(names) == len(runs)
    for name in names:
        assert (tmp_path / "poisoned" / name).read_bytes() == (normal / name).read_bytes(), name


def test_scans_run_without_numpy_ma(tmp_path, monkeypatch):
    """``bell --scan-step`` and ``correlate --bell`` load no ``numpy.ma``
    (``np.unique`` and ``np.median`` would, at 9-15 ms a process): with its
    import made to fail they give the bytes of a normal run."""
    from thermalbell import cli

    stack = tmp_path / "frames.spkl"
    assert cli.main(["simulate", "--frames", "600", "--tau-ratio", "0.01", "--substeps", "2",
                     "--subsources", "16", "--pixel-pitch", "8e-6", "--grid-width", "128",
                     "--grid-height", "8", "--seed", "11", "--out", str(stack)]) == 0
    argvs = [["bell", "--four-term", "--m", "5", "--scan-step", "0.5", "--out", "scan.json"],
             ["correlate", "--frames", str(stack), "--m", "1", "--bell", "--realizations", "2",
              "--boot", "20", "--out", "run"]]
    code = (
        "import contextlib, io, os, sys\n"
        "sys.modules['numpy.ma'] = None\n"
        "from thermalbell import cli\n"
        f"os.chdir({str(tmp_path / 'poisoned')!r})\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
    )
    for name in ("poisoned", "normal"):
        (tmp_path / name).mkdir()
    done = _run_fresh(code)
    assert done.returncode == 0, done.stderr

    monkeypatch.chdir(tmp_path / "normal")
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    names = sorted(p.name for p in Path().iterdir() if not p.name.endswith(".meta.json"))
    assert names == ["run_curve_m1.csv", "run_report.json", "run_visibility.csv", "scan.json"]
    for name in names:
        assert (tmp_path / "poisoned" / name).read_bytes() == Path(name).read_bytes(), name


def test_bell_runs_without_fractions():
    """``bell`` with a model visibility loads no ``fractions`` (with
    ``decimal`` and ``numbers``, about 2 ms a process): only
    ``analytic.visibility_tls_exact`` imports it."""
    code = (
        "import contextlib, io, sys\n"
        "from thermalbell import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['bell', '--four-term', '--m', '5', '--bound', 'upper']) == 0\n"
        "assert 'fractions' not in sys.modules\n"
    )
    done = _run_fresh(code)
    assert done.returncode == 0, done.stderr


def test_help_runs_without_numpy(monkeypatch):
    """With every numpy import made to fail, ``--help`` of ``thermalbell``
    and of each command prints the text of a normal run, and no module of
    the package but ``cli`` and the ``config`` it reads the flags from (with
    its ``errors``) is loaded."""
    from thermalbell import cli

    monkeypatch.setenv("COLUMNS", "80")
    argvs = [["--help"], *([command, "--help"] for command in cli._COMMANDS)]
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from thermalbell import cli\n"
        f"for argv in {argvs!r}:\n"
        "    try:\n"
        "        cli.main(argv)\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, argv\n"
        "loaded = sorted(n for n in sys.modules if n.startswith('thermalbell.'))\n"
        "assert loaded == ['thermalbell.cli', 'thermalbell.config', 'thermalbell.errors'], loaded\n"
    )
    done = _run_fresh(code)
    assert done.returncode == 0, done.stderr

    buf = io.StringIO()
    for argv in argvs:
        with contextlib.redirect_stdout(buf), pytest.raises(SystemExit):
            cli.main(argv)
    assert done.stdout == buf.getvalue()


def test_sources_parse_as_python_310():
    """Every Python file of the project parses with the grammar of Python
    3.10, the requires-python floor, whatever interpreter runs the tests."""
    import ast
    root = SRC.parent
    files = [path for top in ("src", "scripts", "tests", "perfbench")
             for path in sorted((root / top).rglob("*.py"))]
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
