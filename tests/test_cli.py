import csv
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import re
import shlex
import subprocess
import sys
import tempfile
import threading
import typing
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import thermalbell
from thermalbell import cli
from thermalbell.config import CorrelateConfig

SIM_ARGS = ["--frames", "1500", "--tau-ratio", "0.01", "--substeps", "2",
            "--subsources", "16", "--pixel-pitch", "8e-6", "--grid-width", "128",
            "--grid-height", "8", "--seed", "11"]


# the tau06 acceptance config at 300 frames, and its pinned outputs
GOLDEN_SIM_ARGS = ["--frames", "300", "--tau-ratio", "0.06", "--substeps", "8",
                   "--subsources", "64", "--pixel-pitch", "8e-6", "--grid-width", "128",
                   "--grid-height", "8", "--seed", "20260811"]
GOLDEN_SIM_SPKL = "b118d345de0587315a9ced797fbd8e222bd180887016b33a628c6f1c76048c72"
GOLDEN_SIM_SUMMARY = {"fringe_period_m": 0.000798, "fringe_period_px": 99.75,
                      "mean_intensity": 2.062134631547597, "n_frames": 300,
                      "speckle_contrast": 0.9614834487721088}


# The pinned runs on the TestGoldenCorrelate stack, and the quantum report
# the benchmark's exact workload writes: per output stem, the command and
# the SHA-256 of each file it writes.  No OpenBLAS kernel set or numpy SIMD
# level changes them (TestGoldenCorrelate.test_golden_bytes_on_other_kernels).
GOLDEN_RUNS = {
    "run": (["correlate", "--m", "1..6", "--bell", "--realizations", "2", "--boot", "40"],
            {"run_report.json":
             "2c37b9718a73b7a59586468882a6f4fa21fc5d020c5bfdd44fb6a1c8d7211c95",
             "run_curve_m6.csv":
             "f5073aefd2cf18f8b7e08e151bf6ebcfbf6c0f6fbf152840a0c094bda6405cff",
             "run_visibility.csv":
             "64f7dac8243702df0701d101d5f200214a61d8f8fe9b6081b5b9896d31fe9e49"}),
    "low": (["correlate", "--m", "6", "--bell", "--bound", "lower", "--realizations", "2",
             "--boot", "40"],
            {"low_report.json":
             "f381d99175d4dfc86be896e878d8251fa745c86e1a5a1071cb2e4ff92cc0b9c8"}),
    "q": (["quantum", "--m", "1..4", "--nbar", "0.05,0.2,0.5", "--delta1", "0.0,1.3"],
          {"q.json": "2f6cac5193c07808734e568a9097410c84366ba9dd1e4d80068c47dc72dca60e"}),
}


def run(args):
    return cli.main(args)


def _golden_args(stem: str, stack, out_dir) -> list[str]:
    """The command line of a pinned run, writing into ``out_dir``."""
    args, digests = GOLDEN_RUNS[stem]
    if args[0] == "correlate":
        return [*args, "--frames", str(stack), "--out", str(out_dir / stem)]
    return [*args, "--out", str(out_dir / next(iter(digests)))]


def _assert_golden(stem: str, out_dir) -> None:
    assert {name: _sha256(out_dir / name) for name in GOLDEN_RUNS[stem][1]} == \
        GOLDEN_RUNS[stem][1]


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _csv_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestAnalyticCommand:
    def test_visibility_csv_exact(self, tmp_path):
        out = tmp_path / "vis.csv"
        assert run(["analytic", "--m", "1..8", "--curve", "visibility",
                    "--out", str(out)]) == 0
        rows = _csv_rows(out)
        assert len(rows) == 8
        for row in rows:
            m = int(row["m"])
            assert Fraction(row["visibility_exact_fraction"]) == Fraction(m, m + 2)
            assert float(row["visibility_dimensionless"]) == m / (m + 2)

    def test_correlation_csv_with_oracle(self, tmp_path, capsys):
        out = tmp_path / "corr.csv"
        assert run(["analytic", "--m", "1..3", "--curve", "correlation",
                    "--delta-points", "16", "--oracle", "--out", str(out)]) == 0
        rows = _csv_rows(out)
        assert len(rows) == 3 * 16
        devs = [float(r["oracle_rel_dev"]) for r in rows]
        assert max(devs) <= 1e-10
        assert "max oracle relative deviation" in capsys.readouterr().out

    def test_oracle_exact_at_largest_sizes(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["analytic", "--m", "14..15", "--curve", "correlation", "--oracle",
                    "--delta-points", "8", "--out", str(out)]) == 0
        rows = _csv_rows(out)
        assert len(rows) == 2 * 8
        assert max(float(r["oracle_rel_dev"]) for r in rows) <= 1e-12

    def test_oracle_arithmetic_fault_is_numeric_guard(self, tmp_path, capsys, monkeypatch):
        from thermalbell import permanents
        monkeypatch.setattr(permanents, "permanent", lambda matrix: 1 + 1j)
        assert run(["analytic", "--m", "2", "--curve", "correlation", "--oracle",
                    "--out", str(tmp_path / "c.csv")]) == 3
        assert "numeric guard:" in capsys.readouterr().err

    def test_empty_m_range_is_usage_error(self, tmp_path):
        assert run(["analytic", "--m", "", "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("m_range, repeated", [("1,1", "1"), ("3,1,3,2,1", "1, 3")])
    def test_repeated_m_refused(self, tmp_path, capsys, m_range, repeated):
        """A repeated m would write its row twice."""
        assert run(["analytic", "--m", m_range, "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == \
            f"config error: m range {m_range!r} repeats m = {repeated}\n"
        assert list(tmp_path.iterdir()) == []

    def test_stdout_when_no_out(self, capsys):
        assert run(["analytic", "--m", "2", "--curve", "visibility"]) == 0
        assert "1/2" in capsys.readouterr().out

    def test_raw_values_rise_past_m20(self, tmp_path):
        """The raw columns keep their units at every m: no drop from
        m = 20 to m = 21."""
        out = tmp_path / "c.csv"
        assert run(["analytic", "--m", "19..22", "--curve", "correlation",
                    "--delta-points", "2", "--out", str(out)]) == 0
        g_plus = [float(r["g_plus"]) for r in _csv_rows(out)][::2]
        assert g_plus == sorted(g_plus) and len(set(g_plus)) == 4
        assert g_plus[2] == float(math.factorial(23) // 22 * 2**21) * (1 - 21 / 23)

    def test_golden_oracle_bytes(self, tmp_path):
        """Pinned bytes of the oracle.csv the benchmark's exact workload
        writes (its scan.json is pinned in TestBellCommand, its quantum.json
        in TestQuantumCommand)."""
        out = tmp_path / "oracle.csv"
        assert run(["analytic", "--m", "1..13", "--curve", "correlation", "--oracle",
                    "--delta-points", "16", "--out", str(out)]) == 0
        assert _sha256(out) == \
            "32ac6590b202981916cd68f78fe85196b2b4840c5977777f3746b87f8ac83ab6"

    def test_golden_correlation_bytes(self, tmp_path):
        """Pinned bytes of the closed-form table through m = 20, the orders
        that came out raw before every order did."""
        out = tmp_path / "c.csv"
        assert run(["analytic", "--m", "1..20", "--curve", "correlation",
                    "--delta-points", "8", "--out", str(out)]) == 0
        assert _sha256(out) == \
            "f80f237395819890480aee0174e2717cc676d4c051f206cc4f4d97f96d6911a0"


class TestScaleGuard:
    """A field amplitude and mean photon number whose correlation scale
    (E0^2 nbar)^(m+1) leaves double precision are refused before any work:
    exit 3, no file, no warning."""

    @pytest.mark.parametrize("args", [
        # E0^(2(m+1)) overflows in the closed form
        ["analytic", "--m", "1..2", "--curve", "correlation", "--oracle",
         "--delta-points", "4", "--field-amp", "1e200"],
        # the Fock engine's detections overflow
        ["quantum", "--m", "1", "--field-amp", "1e200"],
        # the oracle's product of the diagonal underflows to 0
        ["analytic", "--m", "1..2", "--curve", "correlation", "--oracle",
         "--delta-points", "4", "--nbar", "1e-320"],
        # the scale is 1, but its factor E0^(2(m+1)) overflows
        ["analytic", "--m", "1..2", "--curve", "correlation",
         "--delta-points", "4", "--field-amp", "1e100", "--nbar", "1e-200"],
        # the scale fits, the permanent's products do not
        ["analytic", "--m", "8", "--curve", "correlation", "--oracle",
         "--delta-points", "4", "--field-amp", "1e17"],
    ])
    def test_refused(self, tmp_path, capsys, args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([*args, "--out", str(tmp_path / "out.txt")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric guard: --field-amp ")
        assert "--nbar" in err and " at m = " in err and "(E0^2 nbar)^(m+1)" in err
        assert list(tmp_path.iterdir()) == []

    def test_every_order_needs_the_scale(self, tmp_path, capsys):
        """The closed form is raw at every m, so the scale guard holds past
        m = 20 too."""
        assert run(["analytic", "--m", "30", "--curve", "correlation",
                    "--delta-points", "2", "--field-amp", "1e20",
                    "--out", str(tmp_path / "c.csv")]) == 3
        assert capsys.readouterr().err.startswith(
            "numeric guard: --field-amp 1e+20 and --nbar 1 at m = 30: the correlation scale")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("m", [115, 120])
    def test_no_scale_fits_past_m114(self, tmp_path, capsys, m):
        """Past m = 114 no scale fits; the refusal names m and no range."""
        assert run(["analytic", "--m", str(m), "--curve", "correlation",
                    "--out", str(tmp_path / "c.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numeric guard: --field-amp 1 and --nbar 1 at m = {m}: "
                              "no correlation scale")
        assert "2^-" not in err
        assert list(tmp_path.iterdir()) == []


class TestBellCommand:
    def test_four_term_m5(self, tmp_path):
        out = tmp_path / "bell.json"
        assert run(["bell", "--four-term", "--m", "5", "--bound", "upper",
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        report = payload["reports"][0]
        assert report["statistic"] == pytest.approx(
            (5 / 28) * 2 * math.sqrt(2) - 0.5, abs=1e-12)
        assert report["violates_upper"] is True
        assert payload["min_violating_m"] == 5

    def test_six_term_ideal(self, tmp_path):
        out = tmp_path / "bell.json"
        assert run(["bell", "--model", "six-term-spe", "--vis", "1.0",
                    "--bound", "upper", "--out", str(out)]) == 0
        report = json.loads(out.read_text())["reports"][0]
        assert report["statistic"] == pytest.approx(0.2071, abs=1e-4)

    def test_four_term_m4_no_violation(self, tmp_path):
        out = tmp_path / "bell.json"
        assert run(["bell", "--four-term", "--m", "4", "--out", str(out)]) == 0
        for report in json.loads(out.read_text())["reports"]:
            assert not report["violates_upper"]
            assert not report["violates_lower"]

    @pytest.mark.parametrize("args, digest", [
        (["--four-term", "--m", "5", "--scan-step", "0.05"],
         "8d6017ed763325209c242b9677c4bf6503b34aede2598dca59ed1cd74811bd97"),
        (["--model", "six-term-tls", "--m", "6", "--scan-step", "0.07"],
         "4b135a58e477a6e51198d080f051fb582306235a6cacd021d86a1c3c3f71a187"),
        (["--model", "six-term-spe", "--vis", "0.9", "--angles", "0.3,1.2,0.4,1.3"],
         "121e1abf4e375ed93abaa0cbb8102af5a1899165032ae78a412a283473c4ccc1"),
        # the scan.json of the benchmark's exact workload
        (["--four-term", "--m", "5", "--scan-step", "0.02"],
         "dde18ab9c3e8e0db92caa600b4f1123f524a1cb5b3e7d9e0ca9f879d83c33ace"),
    ])
    def test_golden_report_bytes(self, tmp_path, args, digest):
        out = tmp_path / "bell.json"
        assert run(["bell", *args, "--out", str(out)]) == 0
        assert _sha256(out) == digest

    @pytest.mark.parametrize("step, points", [
        ("100", 0), ("1e-4", 62832), ("1e-300", "6.283185307179586e+300"),
        ("1e-310", "inf"), ("5e-324", "inf")])
    def test_scan_grid_size_guarded(self, tmp_path, capsys, step, points):
        """A step giving no grid point, or too many to hold, is refused
        before the scan allocates anything; so is a step so small that the
        point count overflows."""
        out = tmp_path / "bell.json"
        assert run(["bell", "--four-term", "--m", "5", "--scan-step", step,
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"gives {points} points per argument" in err
        assert list(tmp_path.iterdir()) == []

    def test_requires_vis_or_m(self):
        assert run(["bell", "--four-term"]) == 2
        assert run(["bell", "--four-term", "--m", "3", "--vis", "0.5"]) == 2

    @pytest.mark.parametrize("from_config", [False, True])
    def test_spe_refuses_thermal_m(self, tmp_path, capsys, from_config):
        """--m sets the thermal law m/(m+2), which single-photon emitters do
        not follow; from flags and config files alike."""
        out = tmp_path / "bell.json"
        if from_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"model": "six-term-spe", "m": 1}))
            args = ["--config", str(cfg)]
        else:
            args = ["--model", "six-term-spe", "--m", "1"]
        assert run(["bell", *args, "--bound", "upper", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --m ") and "--model six-term-spe" in err
        assert not out.exists()

    def test_bad_visibility_rejected(self, capsys):
        """The visibility and m checks of ``analytic`` refuse these."""
        for args, message in [(["--vis", "1.5"], "visibility must lie in [0, 1], got 1.5"),
                              (["--m", "0"], "m must be >= 1, got 0")]:
            assert run(["bell", "--four-term", *args]) == 2
            assert capsys.readouterr().err == f"config error: {message}\n"

    def test_three_angles_rejected(self, capsys):
        assert run(["bell", "--four-term", "--m", "5", "--angles", "1,2,3"]) == 2
        assert "four cosine arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        # the bracket would read 4.0, above 2*sqrt(2), and claim a violation
        ["--four-term", "--vis", "1", "--angles", "0,3.141592653589793,0,0",
         "--bound", "upper"],
        ["--model", "six-term-spe", "--vis", "0.9", "--angles", "0.3,1.2,0.4,2.0"],
        # every sign choice's residual or realized phases overflow the float range
        ["--four-term", "--vis", "0.5", "--angles", "1e308,1e308,1e308,1.5e308"],
    ])
    def test_unrealizable_angles_refused(self, tmp_path, capsys, args):
        """Arguments that no four detector phases give are refused."""
        assert run(["bell", *args, "--out", str(tmp_path / "bell.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --angles: no consistent detector realization")
        assert list(tmp_path.iterdir()) == []

    def test_angles_near_float_range_realized(self, capsys):
        """t1 = t4 = 1e308 and t2 = t3 = 0 are realized with t4 negated,
        although other sign choices overflow."""
        assert run(["bell", "--four-term", "--vis", "0.5",
                    "--angles", "1e308,0,0,1e308"]) == 0
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert all(math.isfinite(report["statistic"]) for report in reports)


class TestQuantumCommand:
    def test_small_grid(self, tmp_path):
        out = tmp_path / "q.json"
        assert run(["quantum", "--m", "1..2", "--nbar", "0.2", "--delta1", "0.0",
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["max_c_deviation"] <= 1e-8
        assert payload["max_gm1_rel_dev"] <= 1e-6
        for row in payload["cross_correlation"]:
            assert row["c_abs"] == pytest.approx(row["m"] / (row["m"] + 2), abs=1e-8)

    def test_under_truncation_exit_code(self, tmp_path, capsys):
        # the second cutoff holds the thermal state but truncates the
        # 4-detection tail, which would put c_abs 2.6e-5 off
        for args in (["--m", "1", "--nbar", "2.0", "--dim", "4"],
                     ["--m", "4", "--nbar", "0.2", "--dim", "13"]):
            assert run(["quantum", *args, "--out", str(tmp_path / "q.json")]) == 3
            err = capsys.readouterr().err
            assert "use dim >=" in err
            assert "suggested --dim" not in err
            assert not (tmp_path / "q.json").exists()

    @pytest.mark.parametrize("args, field", [
        (["quantum", "--m", "1..2", "--nbar", "nan"], "nbar"),
        (["quantum", "--m", "1..2", "--nbar", "0.2,inf"], "nbar"),
        (["quantum", "--m", "1..2", "--delta1", "inf"], "delta1"),
        (["quantum", "--m", "1..2", "--field-amp", "nan"], "field_amp"),
        (["bell", "--four-term", "--m", "5", "--angles", "nan,1,1,1"], "angles"),
        (["analytic", "--m", "1..2", "--curve", "correlation", "--nbar=-inf"], "nbar"),
    ])
    def test_non_finite_input_refused(self, tmp_path, capsys, args, field):
        assert run([*args, "--out", str(tmp_path / "out.txt")]) == 2
        assert f"field '{field}': expected a finite number" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_config_value_refused(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"nbar": [0.2], "delta1": [NaN]}')
        assert run(["quantum", "--config", str(cfg)]) == 2
        assert "field 'delta1': expected a finite number" in capsys.readouterr().err
        cfg.write_text('{"nbar": [1' + "0" * 400 + ']}')
        assert run(["quantum", "--config", str(cfg)]) == 2
        assert "field 'nbar': expected a finite number" in capsys.readouterr().err

    def test_non_positive_nbar_refused(self, tmp_path, capsys):
        assert run(["quantum", "--m", "1", "--nbar", "-1", "--out",
                    str(tmp_path / "q.json")]) == 2
        assert "mean_photons must be finite and > 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [
        ["quantum", "--m", "1..2", "--gm1-deltas", "0"],
        ["quantum", "--m", "1..2", "--nbar", ""],
        ["analytic", "--m", "1..3", "--curve", "correlation", "--oracle",
         "--delta-points", "0"],
    ])
    def test_vacuous_check_refused(self, tmp_path, capsys, args):
        """A check over no points would report a perfect agreement."""
        assert run([*args, "--out", str(tmp_path / "out.txt")]) == 2
        assert "config error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args, fields, message", [
        (["--nbar", "0.2,0.2", "--delta1", "0,0"], {"nbar": [0.2, 0.2], "delta1": [0, 0]},
         "nbar repeats 0.2"),
        (["--nbar", "0.05,0.2,0.5,0.05"], {"nbar": [0.05, 0.2, 0.5, 0.05]},
         "nbar repeats 0.05"),
        (["--delta1", "0,1.3,0.0"], {"delta1": [0, 1.3, 0.0]}, "delta1 repeats 0.0"),
    ])
    def test_repeated_point_refused(self, tmp_path, capsys, args, fields, message):
        """A repeated --nbar or --delta1 value would compute and write the
        rows of its point once per repeat; from flags or a config file."""
        assert run(["quantum", "--m", "1", *args, "--out", str(tmp_path / "q.json")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(fields))
        assert run(["quantum", "--m", "1", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_nan_result_refused(self, tmp_path, capsys, monkeypatch):
        """A nan coefficient exits 3 instead of a summary that reads 0.0."""
        from thermalbell import fock
        monkeypatch.setattr(fock, "cm_coefficient", lambda *args, **kwargs: complex("nan"))
        assert run(["quantum", "--m", "1..2", "--out", str(tmp_path / "q.json")]) == 3
        assert "max_c_deviation = nan" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_cutoff_beyond_physical_memory_refused(self, tmp_path, capsys):
        """The bands' size is known before anything is allocated."""
        from thermalbell import fock
        assert run(["quantum", "--m", "1", "--nbar", "0.2", "--dim", "100000",
                    "--out", str(tmp_path / "q.json")]) == 3
        err = capsys.readouterr().err
        assert "--dim" in err and f"needs {fock.state_nbytes(100000, 2)} bytes" in err
        assert list(tmp_path.iterdir()) == []

    def test_closed_form_agrees_past_m20(self, tmp_path):
        """Past m = 20 the Fock engine and the closed form compare raw with
        raw; what is left is the cutoff's bias at this nbar."""
        out = tmp_path / "q.json"
        assert run(["quantum", "--m", "21", "--nbar", "0.2", "--gm1-deltas", "2",
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["max_gm1_rel_dev"] <= 1e-4

    def test_golden_exact_workload_bytes(self, tmp_path):
        """Pinned bytes of the quantum report the benchmark's exact workload
        writes."""
        assert run(_golden_args("q", None, tmp_path)) == 0
        _assert_golden("q", tmp_path)


class TestSimulateCommand:
    def test_writes_stack_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "frames.spkl"
        assert run(["simulate", *SIM_ARGS, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "speckle contrast" in stdout
        meta = json.loads((tmp_path / "frames.spkl.meta.json").read_text())
        assert meta["summary"]["fringe_period_px"] == pytest.approx(99.75)
        assert meta["geometry"]["width"] == 128
        from thermalbell import spkl
        header, pixels = spkl.read_spkl(out)
        assert header.n_frames == 1500
        assert pixels.shape == (1500, 8, 128)

    def test_seed_determinism_bytes(self, tmp_path):
        a = tmp_path / "a.spkl"
        b = tmp_path / "b.spkl"
        assert run(["simulate", *SIM_ARGS, "--out", str(a)]) == 0
        assert run(["simulate", *SIM_ARGS, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_golden_stack_bytes(self, tmp_path):
        """Pinned SPKL bytes of the tau06 acceptance config at 300 frames."""
        out = tmp_path / "g.spkl"
        assert run(["simulate", *GOLDEN_SIM_ARGS, "--out", str(out)]) == 0
        assert _sha256(out) == GOLDEN_SIM_SPKL

    @pytest.mark.parametrize("chunk", [7, 50, 1000])
    def test_golden_stack_any_workers(self, tmp_path, workers, chunk):
        cfg = tmp_path / "chunk.json"
        cfg.write_text(json.dumps({"chunk": chunk}))
        out = tmp_path / "g.spkl"
        assert run(["simulate", "--config", str(cfg), *GOLDEN_SIM_ARGS,
                    "--out", str(out)]) == 0
        assert _sha256(out) == GOLDEN_SIM_SPKL
        meta = json.loads((tmp_path / "g.spkl.meta.json").read_text())
        assert meta["summary"] == GOLDEN_SIM_SUMMARY
        assert meta["diagnostics"]["workers"] == workers

    def test_sidecar_diagnostics(self, tmp_path):
        from thermalbell import blas
        out = tmp_path / "g.spkl"
        assert run(["simulate", *GOLDEN_SIM_ARGS, "--out", str(out)]) == 0
        diag = json.loads((tmp_path / "g.spkl.meta.json").read_text())["diagnostics"]
        assert set(diag) == {"workers", "blas_pinned", "blas_threads_before",
                             "generate_write_s", "blas_core", "numpy_simd", "peak_rss_mb"}
        assert {key: diag[key] for key in ("blas_core", "numpy_simd")} == blas.kernels()
        assert diag["workers"] == 1                  # 300 frames are one chunk
        assert diag["blas_pinned"] == (diag["blas_threads_before"] is not None)
        assert diag["blas_threads_before"] == blas.threads()
        assert diag["generate_write_s"] > 0
        assert diag["peak_rss_mb"] > 10

    def test_failed_write_leaves_nothing(self, tmp_path, monkeypatch, capsys,
                                         threads_joined, blas_threads):
        from thermalbell import blas, spkl
        write = spkl.SpklWriter.write
        calls = []

        def failing(self, frames):
            calls.append(frames.shape[0])
            if len(calls) == 2:
                raise OSError("disk full")
            return write(self, frames)
        monkeypatch.setattr(spkl.SpklWriter, "write", failing)
        monkeypatch.setattr("thermalbell.speckle._worker_count", lambda n_chunks: 3)
        cfg = tmp_path / "chunk.json"
        cfg.write_text(json.dumps({"chunk": 50}))
        assert run(["simulate", "--config", str(cfg), *GOLDEN_SIM_ARGS,
                    "--out", str(tmp_path / "g.spkl")]) == 4
        assert "disk full" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]
        threads_joined()
        assert blas.threads() == blas_threads

    def test_new_stack_never_beside_earlier_sidecar(self, tmp_path, monkeypatch, capsys):
        """A stack whose sidecar write fails is left without a sidecar, not
        beside the sidecar of the stack it replaced."""
        from thermalbell import spkl
        out = tmp_path / "frames.spkl"
        assert run(["simulate", *SIM_ARGS, "--out", str(out)]) == 0

        def refuse(*args, **kwargs):
            raise OSError("disk full")
        monkeypatch.setattr(spkl, "write_sidecar", refuse)
        args = list(SIM_ARGS)
        args[args.index("--grid-width") + 1] = "96"
        assert run(["simulate", *args, "--out", str(out)]) == 4
        assert list(tmp_path.iterdir()) == [out]
        assert spkl.read_header(out).width == 96
        monkeypatch.undo()
        capsys.readouterr()
        assert run(["correlate", "--frames", str(out), "--m", "1",
                    "--out", str(tmp_path / "r")]) == 2
        assert "is missing" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [out]

    def test_starts_no_process(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulate started a process")
        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(subprocess, "Popen", refuse)
        assert run(["simulate", *SIM_ARGS, "--out", str(tmp_path / "s.spkl")]) == 0
        assert multiprocessing.active_children() == []

    def test_summary_does_not_depend_on_chunk(self, tmp_path):
        args = list(SIM_ARGS)
        args[1], args[3] = "3000", "0.06"
        summaries = []
        for chunk in (7, 1024, 4096):
            cfg = tmp_path / f"c{chunk}.json"
            cfg.write_text(json.dumps({"chunk": chunk}))
            out = tmp_path / f"c{chunk}.spkl"
            assert run(["simulate", "--config", str(cfg), *args, "--out", str(out)]) == 0
            meta = json.loads((tmp_path / f"c{chunk}.spkl.meta.json").read_text())
            summaries.append(meta["summary"])
        assert summaries[0] == summaries[1] == summaries[2]

    def test_sampling_guard_exit_code(self, tmp_path):
        assert run(["simulate", "--frames", "10", "--pixel-pitch", "1e-4",
                    "--out", str(tmp_path / "x.spkl")]) == 3

    def test_requires_out(self):
        assert run(["simulate", "--frames", "10"]) == 2

    @pytest.mark.parametrize("amp", ["1e30", "1e-30", "5e9", "2e-10"])
    def test_intensity_beyond_float32_refused(self, tmp_path, capsys, amp):
        """A mean intensity E0^2 nbar whose pixels float32 would hold as inf
        or as zeros is refused before any frame is made: exit 3, no
        warning, and nothing written."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["simulate", "--frames", "100", "--field-amp", amp, "--pixel-pitch",
                        "8e-6", "--grid-width", "128", "--out", str(tmp_path / "x.spkl")]) == 3
        assert capsys.readouterr().err.startswith(
            f"numeric guard: --field-amp {float(amp):g} and --nbar 1: the mean intensity "
            "E0^2 nbar = 2^")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("amp", ["4e9", "2.5e-10"])
    def test_intensity_at_the_scale_limits_written(self, tmp_path, amp):
        """Just inside 2^-64 .. 2^64, every pixel is finite and nonzero."""
        from thermalbell import spkl
        out = tmp_path / "x.spkl"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["simulate", "--frames", "100", "--field-amp", amp, "--pixel-pitch",
                        "8e-6", "--grid-width", "128", "--out", str(out)]) == 0
        pixels = spkl.read_spkl(out)[1]
        assert np.isfinite(pixels).all() and (pixels > 0).all()

    @pytest.mark.parametrize("bad", [["--frames", "-5"], ["--frames", "0"],
                                     ["--frames", str(2**32)], ["--seed", "-1"],
                                     ["--seed", str(2**64)]])
    def test_out_of_range_header_fields(self, tmp_path, capsys, bad):
        out = tmp_path / "x.spkl"
        assert run(["simulate", "--frames", "10", *bad, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("chunk", [0, -1])
    def test_chunk_below_one_refused(self, tmp_path, capsys, chunk):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"chunk": chunk}))
        out = tmp_path / "x.spkl"
        assert run(["simulate", "--config", str(cfg), "--frames", "10", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: chunk must be >= 1, got {chunk}\n"
        assert list(tmp_path.iterdir()) == [cfg]


class TestCorrelateCommand:
    @pytest.fixture()
    def stack(self, tmp_path):
        out = tmp_path / "frames.spkl"
        args = list(SIM_ARGS)
        args[1] = "3000"
        assert run(["simulate", *args, "--out", str(out)]) == 0
        return out

    def test_pipeline_outputs(self, stack, tmp_path):
        stem = tmp_path / "run"
        assert run(["correlate", "--frames", str(stack), "--m", "1..2",
                    "--boot", "60", "--out", str(stem)]) == 0
        vis_rows = _csv_rows(tmp_path / "run_visibility.csv")
        assert [int(r["m"]) for r in vis_rows] == [1, 2]
        v1 = float(vis_rows[0]["v_hat_dimensionless"])
        assert v1 == pytest.approx(1 / 3, abs=0.05)
        curve = _csv_rows(tmp_path / "run_curve_m1.csv")
        assert set(curve[0]) == {"x2_pixel", "delta_rad", "g_value_dimensionless",
                                 "stderr_dimensionless"}
        report = json.loads((tmp_path / "run_report.json").read_text())
        assert report["visibility_table"][0]["v_theory"] == pytest.approx(1 / 3)

    def test_bell_flag(self, stack, tmp_path):
        stem = tmp_path / "runb"
        assert run(["correlate", "--frames", str(stack), "--m", "1", "--bell",
                    "--realizations", "2", "--boot", "50", "--out", str(stem)]) == 0
        payload = json.loads((tmp_path / "runb_report.json").read_text())
        assert payload["bell"]["m"] == 1
        assert payload["bell"]["statistic"] == pytest.approx(-0.264, abs=0.05)

    def test_byte_identical_rerun(self, stack, tmp_path):
        args = ["correlate", "--frames", str(stack), "--m", "1", "--boot", "40"]
        assert run([*args, "--out", str(tmp_path / "r1")]) == 0
        assert run([*args, "--out", str(tmp_path / "r2")]) == 0
        for name in ("_visibility.csv", "_curve_m1.csv"):
            assert (tmp_path / f"r1{name}").read_bytes() == \
                (tmp_path / f"r2{name}").read_bytes()
        a = json.loads((tmp_path / "r1_report.json").read_text())
        b = json.loads((tmp_path / "r2_report.json").read_text())
        a.pop("visibility_table")[0].pop("curve_csv")
        b.pop("visibility_table")[0].pop("curve_csv")
        assert a == b

    def test_single_bootstrap_block_rejected(self, stack, tmp_path, capsys):
        """A block longer than the stack would give a zero error bar."""
        assert run(["correlate", "--frames", str(stack), "--m", "6", "--bell",
                    "--block", "4000", "--out", str(tmp_path / "x")]) == 3
        assert "bootstrap blocks" in capsys.readouterr().err

    @pytest.fixture()
    def collect_calls(self, monkeypatch):
        """One entry per pass over a stack."""
        from thermalbell import correlate
        calls = []
        real = correlate.collect_cells
        monkeypatch.setattr(correlate, "collect_cells",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        return calls

    def test_block_count_checked_before_reading(self, stack, tmp_path, collect_calls):
        assert run(["correlate", "--frames", str(stack), "--m", "1..6", "--bell",
                    "--block", "4000", "--out", str(tmp_path / "x")]) == 3
        assert collect_calls == []

    def test_short_scan_refused_before_reading(self, stack, tmp_path, collect_calls, capsys):
        """A scan shorter than one fringe period cannot be fitted; it is
        refused before the pass over the stack, and nothing is written."""
        assert run(["correlate", "--frames", str(stack), "--m", "1", "--x2-range", "0:10",
                    "--out", str(tmp_path / "x")]) == 3
        assert capsys.readouterr().err == ("numeric guard: scan spans 0.09 fringe periods; "
                                           "at least one full period required\n")
        assert collect_calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["frames.spkl", "frames.spkl.meta.json"]

    @pytest.mark.parametrize("args", [
        ["--m", "6", "--bell", "--bell-m", "5", "--y1-rows", "0,1,2,3,4,5"],
        ["--m", "2", "--x1", "0", "--y1-rows", "0,1", "--y2", "1",
         "--x2-range", "1:128", "--bell"],
    ])
    def test_bad_rows_rejected_before_reading(self, stack, tmp_path, collect_calls,
                                              capsys, args):
        """Rows the Bell estimate cannot use stop the run before the pass
        over the stack, and nothing is written."""
        assert run(["correlate", "--frames", str(stack), *args,
                    "--out", str(tmp_path / "run")]) == 2
        assert "config error" in capsys.readouterr().err
        assert collect_calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["frames.spkl", "frames.spkl.meta.json"]

    @pytest.mark.parametrize("target, error, code", [
        ("thermalbell.correlate.bell_from_frames", ArithmeticError, 3),
        ("thermalbell.cli._json_text", OSError, 4),
    ])
    def test_failed_last_step_writes_nothing(self, stack, tmp_path, monkeypatch,
                                             target, error, code):
        """Curves and the visibility table are written only once the report
        is computed too."""
        def fail(*args, **kwargs):
            raise error("late failure")
        monkeypatch.setattr(target, fail)
        assert run(["correlate", "--frames", str(stack), "--m", "1..6", "--bell",
                    "--realizations", "2", "--boot", "20",
                    "--out", str(tmp_path / "run")]) == code
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["frames.spkl", "frames.spkl.meta.json"]

    def test_failed_third_write_publishes_nothing(self, stack, tmp_path, monkeypatch,
                                                  capsys):
        """Every temporary file is written before any is renamed, so a write
        that fails part way leaves none of the command's files."""
        from thermalbell import spkl
        real = spkl.AtomicFile.write
        calls = []

        def third_fails(self, data):
            calls.append(self.path.name)
            if len(calls) == 3:
                raise OSError("disk full")
            real(self, data)
        monkeypatch.setattr(spkl.AtomicFile, "write", third_fails)
        assert run(["correlate", "--frames", str(stack), "--m", "1..6", "--bell",
                    "--realizations", "2", "--boot", "20",
                    "--out", str(tmp_path / "part")]) == 4
        assert "disk full" in capsys.readouterr().err
        assert calls == ["part_curve_m1.csv", "part_curve_m2.csv", "part_curve_m3.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["frames.spkl", "frames.spkl.meta.json"]

    def test_too_many_realizations_refused_before_reading(self, stack, tmp_path,
                                                          collect_calls, capsys):
        """The desk geometry fits 364 realizations of the upper-bound angles."""
        assert run(["correlate", "--frames", str(stack), "--m", "1", "--bell",
                    "--realizations", "365", "--out", str(tmp_path / "run")]) == 3
        assert "only 364 pixel realizations" in capsys.readouterr().err
        assert collect_calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["frames.spkl", "frames.spkl.meta.json"]

    @pytest.mark.parametrize("args, code, message", [
        # numpy's SeedSequence would refuse it only after the pass
        (["--boot-seed", "-1"], 2, "config error: boot_seed must be >= 0, got -1"),
        # realizable with t4 negated, but no pixel columns are 1e308 apart
        (["--bell", "--angles", "1e308,0,0,1e308"], 3,
         "numeric guard: only 0 pixel realizations"),
    ], ids=["boot-seed", "angles"])
    def test_refused_before_reading(self, stack, tmp_path, collect_calls, capsys, args, code,
                                    message):
        assert run(["correlate", "--frames", str(stack), "--m", "1", *args,
                    "--out", str(tmp_path / "run")]) == code
        assert capsys.readouterr().err.startswith(message)
        assert collect_calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["frames.spkl", "frames.spkl.meta.json"]

    @pytest.mark.parametrize("args", [
        ["--m", "8"],
        ["--m", "9"],
        ["--m", "1..8", "--bell"],
        ["--m", "6", "--bell", "--bell-m", "8"],
    ])
    def test_more_rows_than_the_grid_refused_before_reading(self, stack, tmp_path,
                                                            collect_calls, capsys, args):
        """m x1 rows and the y2 row need m + 1 rows; the 8-row grid holds
        m <= 7 with the default rows."""
        assert run(["correlate", "--frames", str(stack), *args,
                    "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "config error: m = " in err and "the grid is 8 rows high" in err
        assert collect_calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["frames.spkl", "frames.spkl.meta.json"]

    @pytest.mark.parametrize("args, message", [
        (["--x1", "200"], "--x1 200 is outside the grid of 128 columns (0..127)"),
        (["--y2", "9"], "--y2 9 is outside the grid of 8 rows (0..7)"),
        (["--y1-rows", "0,9"], "--y1-rows 9 is outside the grid of 8 rows (0..7)"),
    ])
    def test_pixel_outside_the_grid_refused_before_reading(self, stack, tmp_path,
                                                           collect_calls, capsys, args,
                                                           message):
        assert run(["correlate", "--frames", str(stack), "--m", "2", "--bell", *args,
                    "--out", str(tmp_path / "run")]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert collect_calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["frames.spkl", "frames.spkl.meta.json"]

    def test_failed_range_read_joins_workers(self, stack, tmp_path, monkeypatch, capsys,
                                             workers, threads_joined):
        """A range read that fails on its third call fails the gather: the
        error reaches the caller once every worker is joined, and the command
        exits 4 with nothing written."""
        from thermalbell import correlate, spkl
        # 3000 frames in chunks of 100
        monkeypatch.setattr(correlate, "CHUNK_PIXELS", 100 * 8 * 128)
        real = spkl.SpklReader.read
        calls = itertools.count(1)

        def third_fails(*args, **kwargs):
            if next(calls) == 3:
                raise OSError("read failed")
            return real(*args, **kwargs)
        monkeypatch.setattr(spkl.SpklReader, "read", third_fails)
        with pytest.raises(OSError, match="read failed"):
            correlate.collect_cells(stack, [((((0, 0),),), ((64, 7),))])
        threads_joined()
        calls = itertools.count(1)
        assert run(["correlate", "--frames", str(stack), "--m", "1..6", "--bell",
                    "--realizations", "2", "--boot", "20",
                    "--out", str(tmp_path / "run")]) == 4
        assert "read failed" in capsys.readouterr().err
        threads_joined()
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["frames.spkl", "frames.spkl.meta.json"]

    def test_failed_product_joins_workers(self, stack, tmp_path, monkeypatch, capsys,
                                          workers, threads_joined):
        """Group products that fail on their second call, on a worker, fail
        the pass: the error reaches the caller once every worker is joined,
        and the command exits 3 with nothing written."""
        from thermalbell import correlate
        # 3000 frames in chunks of 1000
        monkeypatch.setattr(correlate, "CHUNK_PIXELS", 1000 * 8 * 128)
        real = correlate._row_products
        threads = []

        def second_fails(columns):
            threads.append(threading.current_thread().name)
            if len(threads) == 2:
                raise ArithmeticError("product failed")
            return real(columns)
        monkeypatch.setattr(correlate, "_row_products", second_fails)
        with pytest.raises(ArithmeticError, match="product failed"):
            correlate.collect_cells(stack, correlate.gm1_terms(2, 64, [0, 1], range(128), 7))
        assert threads[1].startswith("collect")
        threads_joined()
        threads.clear()
        assert run(["correlate", "--frames", str(stack), "--m", "1..6", "--bell",
                    "--realizations", "2", "--boot", "20",
                    "--out", str(tmp_path / "run")]) == 3
        assert "product failed" in capsys.readouterr().err
        assert threads[1].startswith("collect")
        threads_joined()
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["frames.spkl", "frames.spkl.meta.json"]

    @pytest.mark.parametrize("value", [np.nan, -1.0])
    def test_bad_pixel_refused(self, stack, tmp_path, capsys, value):
        """One pixel an estimate reads that is NaN or negative stops the run
        with exit 3, naming the frame and the pixel, and nothing is written."""
        with open(stack, "r+b") as fh:
            fh.seek(36 + 4 * (10 * 1024 + 7 * 128 + 5))
            fh.write(np.float32(value).tobytes())
        assert run(["correlate", "--frames", str(stack), "--m", "2", "--bell",
                    "--bell-m", "2", "--realizations", "2", "--out", str(tmp_path / "run")]) == 3
        assert f"numeric guard: frame 10, column 5, row 7 holds {value}: " \
            in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["frames.spkl", "frames.spkl.meta.json"]

    def test_dark_stack_refused(self, tmp_path, capsys):
        """A stack of zero intensity (``--nbar 0``) would give nan
        correlations: exit 3, naming a pixel, and nothing is written."""
        stack = tmp_path / "z.spkl"
        assert run(["simulate", "--frames", "2000", "--nbar", "0", "--pixel-pitch", "8e-6",
                    "--grid-width", "128", "--grid-height", "8", "--out", str(stack)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["correlate", "--frames", str(stack), "--m", "1..2", "--bell",
                        "--bell-m", "2", "--realizations", "2",
                        "--out", str(tmp_path / "zc")]) == 3
        assert capsys.readouterr().err == ("numeric guard: column 0, row 7 is zero in every "
                                           "frame: its mean divides every correlation it "
                                           "enters\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["z.spkl", "z.spkl.meta.json"]

    def test_degenerate_bootstrap_refused(self, tmp_path, capsys):
        """A pixel that is zero in every frame but the last makes the
        bootstrap replicates that do not draw the last block divide 0/0:
        exit 3, naming m and the x2 column, no warning, nothing written."""
        stack = tmp_path / "frames.spkl"
        assert run(["simulate", "--frames", "3000", "--tau-ratio", "0.06", "--seed", "5",
                    "--pixel-pitch", "8e-6", "--grid-width", "128", "--grid-height", "8",
                    "--out", str(stack)]) == 0
        capsys.readouterr()
        with open(stack, "r+b") as fh:
            for frame in range(2999):
                fh.seek(36 + 4 * (frame * 1024 + 7 * 128 + 18))
                fh.write(np.float32(0.0).tobytes())
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["correlate", "--frames", str(stack), "--m", "1..2",
                        "--out", str(tmp_path / "run")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric guard: m = 1, x2 column 18: ")
        assert "bootstrap replicates of ghat are not finite" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["frames.spkl", "frames.spkl.meta.json"]

    @pytest.mark.parametrize("width, height", [(120, 4), (120, 8), (128, 4)])
    def test_sidecar_grid_must_match_stack(self, stack, tmp_path, collect_calls, capsys,
                                           width, height):
        """A sidecar whose grid is not the stack's is refused before the
        pass over the stack, naming both shapes."""
        sidecar = tmp_path / "frames.spkl.meta.json"
        meta = json.loads(sidecar.read_text())
        meta["geometry"].update(width=width, height=height, pixel_pitch=8.6e-6)
        sidecar.write_text(json.dumps(meta))
        assert run(["correlate", "--frames", str(stack), "--m", "1..2",
                    "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: sidecar {sidecar} describes a {width} x "
                              f"{height} grid, but {stack} holds 128 x 8 frames")
        assert collect_calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["frames.spkl", "frames.spkl.meta.json"]

    def test_sidecar_diagnostics(self, stack, tmp_path):
        stem = tmp_path / "d"
        assert run(["correlate", "--frames", str(stack), "--m", "1..2", "--bell",
                    "--realizations", "2", "--boot", "30", "--out", str(stem)]) == 0
        meta = json.loads((tmp_path / "d_report.json.meta.json").read_text())
        diag = meta["diagnostics"]
        assert diag["n_blocks"] == 47 and diag["block_len"] == 64
        assert diag["n_boot"] == 30
        from thermalbell import blas
        assert {key: diag[key] for key in ("blas_core", "numpy_simd")} == blas.kernels()
        # 2 x1 pixels, 128 scan pixels, 2 x 4 Bell columns on 2 rows
        assert 130 < diag["n_cells"] <= 130 + 16
        assert set(diag["stage_s"]) == {"collect", "curves", "bell"}
        # 3000 frames of 8 x 128 pixels are 3 chunks of the pass
        assert diag["collect_workers"] == min(len(os.sched_getaffinity(0)), 3)
        # the block sums of every cell and of the numerators: 128 for each
        # curve, 16 for each Bell realization
        assert diag["table_mb"] == 47 * (diag["n_cells"] + 2 * 128 + 2 * 16) * 8 / 1e6
        # per worker: a read of 256 frames and its gathered cells (float32),
        # and over a 1024-frame chunk the cells and a row of ones, a factor
        # of the 10 groups (one per curve, 4 per Bell realization) and a
        # curve's 128 numerators (float64)
        per_worker = 256 * (8 * 128 + diag["n_cells"]) * 4 + \
            1024 * (diag["n_cells"] + 1 + 10 + 128) * 8
        assert diag["buffers_mb"] == diag["collect_workers"] * per_worker / 1e6
        assert diag["peak_rss_mb"] > diag["table_mb"]
        assert "estimate_workers" not in diag
        # per realization, every column's target phase and snap error
        assert len(diag["bell_snap"]) == 2
        step = 2 * math.pi / 99.75
        for snap in diag["bell_snap"]:
            assert list(snap) == ["snap_error_rad", "target_rad"]
            assert set(snap["target_rad"]) == set(snap["snap_error_rad"]) == \
                {"s1", "p1", "s1p", "p1p", "s2", "p2", "s2p", "p2p"}
            assert all(abs(err) <= 0.75 * step * (1 + 1e-9)
                       for err in snap["snap_error_rad"].values())
        report = json.loads((tmp_path / "d_report.json").read_text())
        assert "diagnostics" not in report

    def test_three_angles_rejected(self, stack, tmp_path, capsys):
        assert run(["correlate", "--frames", str(stack), "--m", "1", "--bell",
                    "--angles", "1,2,3", "--out", str(tmp_path / "x")]) == 2
        assert "four cosine arguments" in capsys.readouterr().err

    def test_missing_frames_file_is_io_error(self, tmp_path):
        assert run(["correlate", "--frames", str(tmp_path / "nope.spkl"),
                    "--m", "1", "--out", str(tmp_path / "x")]) == 4

    def test_missing_sidecar_is_config_error(self, stack, tmp_path):
        (tmp_path / "frames.spkl.meta.json").unlink()
        assert run(["correlate", "--frames", str(stack), "--m", "1",
                    "--out", str(tmp_path / "x")]) == 2

    def test_unrealizable_angles_refused(self, stack, tmp_path, collect_calls, capsys):
        assert run(["correlate", "--frames", str(stack), "--m", "1", "--bell",
                    "--angles", "0.3,1.2,0.4,2.0", "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: --angles: no consistent detector realization")
        assert collect_calls == []

    def test_repeated_m_refused(self, stack, tmp_path, collect_calls, capsys):
        assert run(["correlate", "--frames", str(stack), "--m", "2,2",
                    "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == "config error: m range '2,2' repeats m = 2\n"
        assert collect_calls == []

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m["geometry"].update(pixel_pitch="x"),
         "geometry field 'pixel_pitch': expected a finite number, got 'x'"),
        (lambda m: m["geometry"].update(wavelength=math.nan),
         "geometry field 'wavelength': expected a finite number, got nan"),
        (lambda m: m["geometry"].update(width=128.0),
         "geometry field 'width': expected an integer, got 128.0"),
        (lambda m: m["geometry"].update(tilt=0.1), "unknown geometry fields ['tilt']"),
        (lambda m: m["geometry"].pop("wavelength"),
         "geometry fields ['wavelength'] are missing"),
        (lambda m: m.update(geometry=[1, 2]),
         "geometry must be an object of fields, got [1, 2]"),
    ], ids=["text-pitch", "nan-wavelength", "float-width", "unknown-field",
            "no-wavelength", "list"])
    def test_malformed_sidecar_geometry_refused(self, stack, tmp_path, collect_calls,
                                                capsys, edit, message):
        """A geometry the sidecar does not record whole and well typed is
        refused before the pass over the stack, naming the sidecar and the
        field; nothing is filled from the defaults."""
        sidecar = tmp_path / "frames.spkl.meta.json"
        meta = json.loads(sidecar.read_text())
        edit(meta)
        sidecar.write_text(json.dumps(meta))
        assert run(["correlate", "--frames", str(stack), "--m", "1",
                    "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"config error: sidecar {sidecar}: {message}\n"
        assert collect_calls == []

    @pytest.mark.parametrize("text, message", [
        ('{"geometry": {', "is not valid JSON: Expecting property name"),
        ("[]", "records no geometry"),
        ("{}", "records no geometry"),
    ], ids=["truncated", "list", "no-geometry"])
    def test_unreadable_sidecar_refused(self, stack, tmp_path, collect_calls, capsys,
                                        text, message):
        sidecar = tmp_path / "frames.spkl.meta.json"
        sidecar.write_text(text)
        assert run(["correlate", "--frames", str(stack), "--m", "1",
                    "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: sidecar {sidecar} {message}")
        assert collect_calls == []


class TestGoldenCorrelate:
    """Pinned bytes of the correlate outputs on a pinned tau06 stack.  The
    report records the curve file names, so the output stems are fixed."""

    @pytest.fixture(scope="class")
    def stack(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("golden") / "frames.spkl"
        assert run(["simulate", "--frames", "3000", "--tau-ratio", "0.06",
                    "--substeps", "8", "--subsources", "64", "--pixel-pitch", "8e-6",
                    "--grid-width", "128", "--grid-height", "8", "--seed", "7",
                    "--out", str(out)]) == 0
        return out

    def test_stack_bytes(self, stack):
        assert _sha256(stack) == \
            "421fc1b57e0ab541647c7fe274193b400e3a2eebe7303eab2cad4b8d3a919ce5"

    def test_curves_and_bell_report(self, stack, tmp_path):
        assert run(_golden_args("run", stack, tmp_path)) == 0
        _assert_golden("run", tmp_path)

    def test_outputs_do_not_depend_on_blas_threads(self, stack, tmp_path):
        """At --block 4 the bootstrap has 750 blocks, enough for OpenBLAS's
        rounding of the resampling products to depend on its thread count;
        the products run on one thread, so the files must not."""
        src = str(Path(thermalbell.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            out = tmp_path / f"threads{threads}"
            out.mkdir()
            subprocess.run([sys.executable, "-m", "thermalbell.cli", "correlate",
                            "--frames", str(stack), "--m", "6", "--bell",
                            "--realizations", "2", "--boot", "40", "--block", "4",
                            "--out", str(out / "run")],
                           env=env, check=True, capture_output=True)
            digests.append({name: _sha256(out / name) for name in
                            ("run_curve_m6.csv", "run_visibility.csv", "run_report.json")})
        assert digests[0] == digests[1]

    def test_lower_bound_report(self, stack, tmp_path):
        assert run(_golden_args("low", stack, tmp_path)) == 0
        _assert_golden("low", tmp_path)

    @pytest.mark.parametrize("override", [
        {"OPENBLAS_CORETYPE": "Haswell"},
        {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
        {"OPENBLAS_CORETYPE": "Haswell",
         "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    ], ids=["haswell-blas", "no-avx512", "both"])
    def test_golden_bytes_on_other_kernels(self, stack, tmp_path, override):
        """A child process on OpenBLAS's Haswell kernels, on numpy without
        its AVX-512 loops, or on both writes the pinned bytes.  An override
        that leaves the child on this process's kernels (as its sidecar
        records them) exercises nothing this CPU can show, and is skipped."""
        from thermalbell import blas
        src = str(Path(thermalbell.__file__).resolve().parents[1])
        env = {**os.environ, **override,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        runs = [_golden_args(stem, stack, tmp_path) for stem in GOLDEN_RUNS]
        done = subprocess.run(
            [sys.executable, "-c", "import json, sys\nfrom thermalbell.cli import main\n"
             "sys.exit(max(main(args) for args in json.loads(sys.argv[1])))",
             json.dumps(runs)], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        diag = json.loads((tmp_path / "q.json.meta.json").read_text())["diagnostics"]
        child = {key: diag[key] for key in ("blas_core", "numpy_simd")}
        if child == blas.kernels():
            pytest.skip(f"{override} leaves the kernels at {child} on this CPU")
        for stem in GOLDEN_RUNS:
            _assert_golden(stem, tmp_path)


@pytest.mark.parametrize("args", [
    ["analytic", "--m", "1..3", "--curve", "correlation", "--delta-points", "8"],
    ["bell", "--four-term", "--m", "5", "--scan-step", "0.5"],
    ["quantum", "--m", "1..2", "--nbar", "0.2"],
])
def test_failed_write_leaves_no_output(tmp_path, monkeypatch, capsys, args):
    """A write that fails half way removes its temporary file and leaves
    nothing at the output path."""
    from thermalbell import spkl
    seen = []

    def half_then_fail(self, data):
        self._fh.write(bytes(data)[:len(data) // 2])
        self._fh.flush()
        seen.append(sorted(p.name for p in tmp_path.iterdir()))
        raise OSError("disk full")
    monkeypatch.setattr(spkl.AtomicFile, "write", half_then_fail)
    out = tmp_path / "out.txt"
    assert run([*args, "--out", str(out)]) == 4
    assert "disk full" in capsys.readouterr().err
    assert seen == [[f".out.txt.{os.getpid()}.tmp"]]
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def stacks(tmp_path_factory) -> dict[str, str]:
    """A 1000-frame desk stack ("good"), and copies of it cut to half its
    frames ("short") and marked SPKL version 2 ("v2"), each with the
    sidecar."""
    folder = tmp_path_factory.mktemp("stacks")
    good = folder / "good.spkl"
    assert run(["simulate", *SIM_ARGS[2:], "--frames", "1000", "--out", str(good)]) == 0
    data = good.read_bytes()
    meta = (folder / "good.spkl.meta.json").read_bytes()
    for name, payload in (("short", data[:len(data) // 2]),
                          ("v2", data[:4] + (2).to_bytes(4, "little") + data[8:])):
        (folder / f"{name}.spkl").write_bytes(payload)
        (folder / f"{name}.spkl.meta.json").write_bytes(meta)
    return {name: str(folder / f"{name}.spkl") for name in ("good", "short", "v2")}


CORRELATE = ["correlate", "--frames", "{good}", "--out", "{out}"]
SIMULATE = ["simulate", "--frames", "10", "--out", "{out}"]


# Refusals as (arguments, config file text or None, exit code): "{good}",
# "{short}" and "{v2}" are the ``stacks``, "{out}" the output path,
# "{config}" the config file and "{missing}" a file that does not exist.
@pytest.mark.parametrize("args, config, code", [
    pytest.param([*CORRELATE, "--block", "0"], None, 2, id="block-0"),
    pytest.param([*CORRELATE, "--boot", "1"], None, 2, id="boot-1"),
    pytest.param([*CORRELATE, "--m", "0"], None, 2, id="m-0"),
    pytest.param([*CORRELATE, "--m", "3..1"], None, 2, id="m-descending"),
    pytest.param([*CORRELATE, "--m", "a"], None, 2, id="m-text"),
    pytest.param([*CORRELATE, "--x2-range", "5"], None, 2, id="x2-range-no-colon"),
    pytest.param([*CORRELATE, "--x2-range", "0:999"], None, 2, id="x2-range-off-grid"),
    pytest.param(["correlate", "--out", "{out}"], None, 2, id="no-frames"),
    pytest.param(["correlate", "--frames", "{good}"], None, 2, id="no-out"),
    pytest.param([*CORRELATE, "--boot-seed", "-1"], None, 2, id="boot-seed-negative"),
    # realizable, but no pixel columns of the grid are 1e308 apart
    pytest.param([*CORRELATE, "--bell", "--angles", "1e308,0,0,1e308"], None, 3,
                 id="angles-near-float-range"),
    pytest.param([*CORRELATE, "--bell", "--angles", "1e308,1e308,1e308,1.5e308"], None, 2,
                 id="angles-beyond-float-range"),
    pytest.param([*SIMULATE, "--grid-width", "1"], None, 2, id="grid-width-1"),
    pytest.param([*SIMULATE, "--subsources", "0"], None, 2, id="subsources-0"),
    pytest.param([*SIMULATE, "--substeps", "0"], None, 2, id="substeps-0"),
    pytest.param([*SIMULATE, "--field-amp", "0"], None, 2, id="field-amp-0"),
    pytest.param([*SIMULATE, "--nbar", "-1"], None, 2, id="nbar-negative"),
    # buffers of petabytes, refused before any is allocated
    pytest.param([*SIMULATE, "--substeps", str(10**12)], None, 3, id="draws-beyond-memory"),
    pytest.param([*SIMULATE, "--subsources", str(10**12)], None, 3,
                 id="phases-beyond-memory"),
    pytest.param([*SIMULATE, "--grid-height", str(10**12)], None, 3,
                 id="rows-beyond-memory"),
    pytest.param(["analytic", "--config", "{missing}", "--out", "{out}"], None, 2,
                 id="config-missing"),
    pytest.param(["analytic", "--config", "{config}", "--out", "{out}"], "[1, 2]", 2,
                 id="config-array"),
    pytest.param(["quantum", "--config", "{config}", "--out", "{out}"], '{"nbar": 0.2}', 2,
                 id="quantum-nbar-scalar"),
    pytest.param(["analytic", "--config", "{config}", "--out", "{out}"], '{"oracle": 1}', 2,
                 id="analytic-oracle-int"),
    pytest.param(["analytic", "--config", "{config}", "--out", "{out}"], '{"m_range": 3}', 2,
                 id="analytic-m-range-int"),
    pytest.param(["correlate", "--frames", "{short}", "--out", "{out}"], None, 4,
                 id="stack-short"),
    pytest.param(["correlate", "--frames", "{v2}", "--out", "{out}"], None, 4,
                 id="stack-version-2"),
])
def test_refusal_exit_codes(tmp_path, capsys, stacks, args, config, code):
    """Each refusal gives its documented exit code and message prefix, no
    traceback, and leaves nothing at the output path."""
    paths = {**stacks, "out": str(tmp_path / "out"), "config": str(tmp_path / "config.json"),
             "missing": str(tmp_path / "missing.json")}
    if config is not None:
        (tmp_path / "config.json").write_text(config)
    assert run([arg.format(**paths) for arg in args]) == code
    err = capsys.readouterr().err
    assert err.startswith({2: "config error: ", 3: "numeric guard: ", 4: "i/o error: "}[code])
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ([] if config is None else ["config.json"])


@pytest.fixture(scope="module")
def stack_3000(tmp_path_factory) -> str:
    out = tmp_path_factory.mktemp("fuzz") / "frames.spkl"
    args = list(SIM_ARGS)
    args[1] = "3000"
    assert run(["simulate", *args, "--out", str(out)]) == 0
    return str(out)


def _correlate_flags() -> st.SearchStrategy:
    """Some of ``correlate``'s flags, as ``--flag=value``, each drawn from
    its ``CorrelateConfig`` field's type hint: a switch, a Literal's
    members, numbers, comma-separated lists or text.  Small values and a
    few meaningful texts are likelier, so that whole runs happen too;
    ``--boot`` stays at or below 40."""
    texts = {"m_range": ["1", "2", "1..2", "6", "3,1", "0", "2..1", "2,2"],
             "x2_range": ["0:128", "20:120", ":", "5", "0:999", "60:70"]}

    def values(name, annotation):
        members = [a for a in typing.get_args(annotation) if a is not type(None)]
        if type(None) in typing.get_args(annotation):
            annotation = members[0]
            members = list(typing.get_args(annotation))
        if annotation is bool:
            return st.just(None)
        if typing.get_origin(annotation) is typing.Literal:
            return st.sampled_from(members)
        if typing.get_origin(annotation) is list:
            item = st.floats(width=64) if members[0] is float else st.integers(-2, 9)
            return st.lists(item.map(str), max_size=5).map(",".join)
        if annotation is int:
            if name == "n_boot":
                return st.integers(-2, 40).map(str)
            return (st.integers(-2, 12) | st.integers(-2, 3100)).map(str)
        return st.sampled_from(texts[name]) | st.text(max_size=6)

    fields = {name: values(name, annotation)
              for name, annotation in typing.get_type_hints(CorrelateConfig).items()
              if name not in ("frames", "out")}

    def flags(drawn: dict) -> list[str]:
        names = {name: cli._RENAMED.get(name, "--" + name.replace("_", "-")) for name in drawn}
        return [names[k] if v is None else f"{names[k]}={v}" for k, v in drawn.items()]
    return st.fixed_dictionaries({}, optional=fields).map(flags)


@given(flags=_correlate_flags())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_correlate_flags_fuzzed(stack_3000, flags):
    """Any set of ``correlate`` flags on a 3000-frame stack ends in exit 0,
    2, 3 or 4, with no exception out of ``main``, and leaves no temporary
    file; a refused run leaves no file at all."""
    with tempfile.TemporaryDirectory() as out:
        code = run(["correlate", "--frames", stack_3000, "--out", f"{out}/run", *flags])
        assert code in (0, 2, 3, 4)
        left = [p.name for p in Path(out).iterdir()]
        assert not [name for name in left if name.endswith(".tmp")]
        assert code == 0 or left == []


class TestConfigHandling:
    @pytest.mark.parametrize("command, fields, message", [
        ("analytic", {"curve": "fringes"},
         "field 'curve': expected one of ['visibility', 'correlation'], got 'fringes'"),
        ("bell", {"model": "four_term_tls", "m": 5},
         "field 'model': expected one of ['four-term', 'six-term-spe', 'six-term-tls'], "
         "got 'four_term_tls'"),
        ("bell", {"bound": "sideways", "m": 5},
         "field 'bound': expected one of ['upper', 'lower', 'both'], got 'sideways'"),
        ("correlate", {"bound": "sideways"},
         "field 'bound': expected one of ['upper', 'lower'], got 'sideways'"),
        ("correlate", {"bound": "both", "bell": True},
         "field 'bound': expected one of ['upper', 'lower'], got 'both'"),
        ("simulate", {"slits": 3}, "field 'slits': expected one of [1, 2], got 3"),
        ("simulate", {"slits": True}, "field 'slits': expected one of [1, 2], got True"),
    ], ids=["curve", "model", "bell-bound", "correlate-bound", "correlate-both",
            "slits-3", "slits-true"])
    def test_choice_from_config_refused(self, tmp_path, capsys, command, fields, message):
        """A config file's value outside its field's choices exits 2 naming
        the field, before any work: ``correlate`` opens no stack, with or
        without --bell, and ``simulate`` opens no file."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(fields))
        args = {"correlate": ["--frames", str(tmp_path / "frames.spkl")],
                "simulate": SIM_ARGS}.get(command, [])
        assert run([command, "--config", str(cfg), *args,
                    "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert list(tmp_path.iterdir()) == [cfg]

    def test_integral_slits_from_config_accepted(self, tmp_path):
        """JSON 2.0 is the slit count 2, as for any integer field."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"slits": 2.0}))
        args = list(SIM_ARGS)
        args[1] = "64"
        assert run(["simulate", "--config", str(cfg), *args,
                    "--out", str(tmp_path / "x.spkl")]) == 0
        assert json.loads((tmp_path / "x.spkl.meta.json").read_text())["slits"] == 2

    def test_config_file_drives_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m_range": "1..3", "curve": "visibility"}))
        out = tmp_path / "vis.csv"
        assert run(["analytic", "--config", str(cfg), "--out", str(out)]) == 0
        rows = _csv_rows(out)
        assert [int(r["m"]) for r in rows] == [1, 2, 3]

    def test_cli_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m_range": "1..3"}))
        out = tmp_path / "vis.csv"
        assert run(["analytic", "--config", str(cfg), "--m", "5",
                    "--out", str(out)]) == 0
        rows = _csv_rows(out)
        assert [int(r["m"]) for r in rows] == [5]

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{\n  \"m_range\": \n}")
        assert run(["analytic", "--config", str(cfg)]) == 2
        assert "line" in capsys.readouterr().err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"m_rangee": "1..3"}))
        assert run(["analytic", "--config", str(cfg)]) == 2
        assert "m_rangee" in capsys.readouterr().err

    def test_wrong_type_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"delta_points": "many"}))
        assert run(["analytic", "--config", str(cfg)]) == 2
        assert "delta_points" in capsys.readouterr().err

    @pytest.mark.parametrize("command, fields", [
        ("bell", {"vis": "0.9"}),
        ("correlate", {"x1": 63.5}),
        ("quantum", {"nbar": [0.2], "dim": "x"}),
    ])
    def test_optional_field_type_checked(self, tmp_path, capsys, command, fields):
        """Fields annotated ``X | None`` are checked like plain ``X`` fields."""
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(fields))
        assert run([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"field '{list(fields)[-1]}'" in err

    @pytest.mark.parametrize("args", [
        ["bell", "--four-term", "--vis", "0.9", "--angles", "0.3,,1.2,0.4,1.3"],
        ["quantum", "--m", "1", "--nbar", "0.2,,0.3"],
        ["quantum", "--m", "1", "--delta1", "0,1.3,"],
        ["correlate", "--frames", "missing.spkl", "--m", "2", "--y1-rows", "0,,1"],
        ["correlate", "--frames", "missing.spkl", "--bell", "--angles",
         ",0.785,0.785,0.785,2.356"],
    ], ids=["bell-angles", "nbar", "delta1", "y1-rows", "correlate-angles"])
    def test_empty_list_value_refused(self, tmp_path, capsys, args):
        """An empty value in a comma-separated flag is a typo, not a value
        to drop: the command exits 2 naming the flag and its text, before
        any work."""
        flag, text = args[-2:]
        with pytest.raises(SystemExit) as exit_:
            run([*args, "--out", str(tmp_path / "out")])
        assert exit_.value.code == 2
        assert capsys.readouterr().err.endswith(
            f": error: argument {flag}: empty value in {text!r}\n")
        assert list(tmp_path.iterdir()) == []

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            run([])
        assert err.value.code == 2

    def test_sidecar_echoes_config(self, tmp_path):
        out = tmp_path / "vis.csv"
        assert run(["analytic", "--m", "1..2", "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "vis.csv.meta.json").read_text())
        assert meta["command"] == "analytic"
        assert meta["config"]["m_range"] == "1..2"
        assert "written_at_unix" in meta

    @pytest.mark.parametrize("args, stages, kernels", [
        (["analytic", "--m", "1..2"], {"table"}, False),
        (["analytic", "--m", "1..2", "--curve", "correlation", "--delta-points", "4",
          "--oracle"], {"table"}, True),
        (["bell", "--four-term", "--m", "5"], {"statistics"}, False),
        (["bell", "--four-term", "--m", "5", "--scan-step", "0.1"], {"statistics", "scan"},
         False),
        (["quantum", "--m", "1", "--nbar", "0.2", "--delta1", "0.0"],
         {"cross_correlation", "gm1_check"}, True),
    ], ids=["analytic", "analytic-oracle", "bell", "bell-scan", "quantum"])
    def test_sidecar_diagnostics(self, tmp_path, capsys, args, stages, kernels):
        """The text commands' sidecars carry their stage times and peak RSS,
        and those of the commands whose numbers run on numpy's kernels name
        the kernels; the output itself is what the command prints without
        --out."""
        from thermalbell import blas
        out = tmp_path / "out.txt"
        assert run([*args, "--out", str(out)]) == 0
        diag = json.loads((tmp_path / "out.txt.meta.json").read_text())["diagnostics"]
        assert set(diag) == {"stage_s", "peak_rss_mb"} | (set(blas.kernels()) if kernels else set())
        if kernels:
            assert {key: diag[key] for key in blas.kernels()} == blas.kernels()
        assert set(diag["stage_s"]) == stages
        assert all(s >= 0 for s in diag["stage_s"].values())
        assert diag["peak_rss_mb"] > 10
        capsys.readouterr()
        assert run(args) == 0
        assert out.read_text() in capsys.readouterr().out


# Every option of every command, as (option strings, dest, type name,
# choices, const, default, help): the surface the config fields declare.
CLI_SURFACE = {
    "analytic": [
        (["--config"], "config", None,
         None, None, None, "JSON config file; flags override its fields"),
        (["--out"], "out", None, None, None, None, "output path (stem for correlate)"),
        (["--m"], "m_range", None, None, None, None, "m range, e.g. 1..8"),
        (["--curve"], "curve", None, ["visibility", "correlation"], None, None, None),
        (["--delta-points"], "delta_points", "int", None, None, None, None),
        (["--vis-override"], "vis_override", "float", None, None, None, None),
        (["--nbar"], "nbar", "float", None, None, None, None),
        (["--field-amp"], "field_amp", "float", None, None, None, None),
        (["--oracle"], "oracle", None,
         None, True, None, "add permanent-oracle cross-check columns"),
    ],
    "bell": [
        (["--config"], "config", None,
         None, None, None, "JSON config file; flags override its fields"),
        (["--out"], "out", None, None, None, None, "output path (stem for correlate)"),
        (["--four-term"], "model", None, None, "four-term", None, None),
        (["--six-term"], "model", None, None, "six-term-tls", None, None),
        (["--model"], "model", None,
         ["four-term", "six-term-spe", "six-term-tls"], None, None, None),
        (["--vis"], "vis", "float", None, None, None, None),
        (["--m"], "m", "int", None, None, None, None),
        (["--bound"], "bound", None, ["upper", "lower", "both"], None, None, None),
        (["--angles"], "angles", "_float_list",
         None, None, None, "four cosine arguments, comma separated, radians"),
        (["--scan-step"], "scan_step", "float",
         None, None, None, "also grid-scan arguments at this step"),
    ],
    "quantum": [
        (["--config"], "config", None,
         None, None, None, "JSON config file; flags override its fields"),
        (["--out"], "out", None, None, None, None, "output path (stem for correlate)"),
        (["--m"], "m_range", None, None, None, None, "m range, e.g. 1..4"),
        (["--nbar"], "nbar", "_float_list",
         None, None, None, "mean photon numbers, comma separated"),
        (["--delta1"], "delta1", "_float_list",
         None, None, None, "detection phases, comma separated"),
        (["--dim"], "dim", "int", None, None, None, None),
        (["--field-amp"], "field_amp", "float", None, None, None, None),
        (["--gm1-deltas"], "gm1_deltas", "int", None, None, None, None),
    ],
    "simulate": [
        (["--config"], "config", None,
         None, None, None, "JSON config file; flags override its fields"),
        (["--out"], "out", None, None, None, None, "output path (stem for correlate)"),
        (["--frames"], "n_frames", "int", None, None, None, None),
        (["--tau-ratio"], "tau_ratio", "float", None, None, None, None),
        (["--substeps"], "substeps", "int", None, None, None, None),
        (["--subsources"], "n_subsources", "int", None, None, None, None),
        (["--slits"], "slits", "int", [1, 2], None, None, None),
        (["--seed"], "seed", "int", None, None, None, None),
        (["--nbar"], "nbar", "float", None, None, None, None),
        (["--field-amp"], "field_amp", "float", None, None, None, None),
        (["--wavelength"], "wavelength", "float", None, None, None, None),
        (["--slit-separation"], "slit_separation", "float", None, None, None, None),
        (["--slit-width"], "slit_width", "float", None, None, None, None),
        (["--propagation"], "propagation", "float", None, None, None, None),
        (["--pixel-pitch"], "pixel_pitch", "float", None, None, None, None),
        (["--grid-width"], "width", "int", None, None, None, None),
        (["--grid-height"], "height", "int", None, None, None, None),
    ],
    "correlate": [
        (["--config"], "config", None,
         None, None, None, "JSON config file; flags override its fields"),
        (["--out"], "out", None, None, None, None, "output path (stem for correlate)"),
        (["--frames"], "frames", None, None, None, None, "input SPKL file"),
        (["--m"], "m_range", None, None, None, None, "m range, e.g. 1..6"),
        (["--x1"], "x1", "int", None, None, None, None),
        (["--y1-rows"], "y1_rows", "_int_list", None, None, None, None),
        (["--y2"], "y2", "int", None, None, None, None),
        (["--x2-range"], "x2_range", None, None, None, None, "scan columns 'start:stop'"),
        (["--boot"], "n_boot", "int", None, None, None, None),
        (["--block"], "block_len", "int", None, None, None, None),
        (["--boot-seed"], "boot_seed", "int", None, None, None, None),
        (["--shuffle"], "shuffle", None,
         None, True, None, "shuffled-frame control (destroys correlations)"),
        (["--bell"], "bell", None,
         None, True, None, "also evaluate the CH74 statistic from frames"),
        (["--bell-m"], "bell_m", "int", None, None, None, None),
        (["--realizations"], "realizations", "int", None, None, None, None),
        (["--bound"], "bound", None, ["upper", "lower"], None, None, None),
        (["--angles"], "angles", "_float_list", None, None, None, None),
    ],
}


class TestParser:
    def test_surface(self):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if a.dest == "command"]
        surface = {
            command: [(a.option_strings, a.dest, getattr(a.type, "__name__", a.type),
                       None if a.choices is None else list(a.choices), a.const,
                       a.default, a.help)
                      for a in p._actions if a.dest != "help"]
            for command, p in sub.choices.items()}
        assert surface == CLI_SURFACE

    def test_readme_commands_parse(self):
        """Every ``thermalbell`` command in README's ``sh`` blocks parses, so
        a renamed flag cannot leave the README behind."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
        lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
        commands = [shlex.split(line)[1:] for line in lines
                    if line.startswith("thermalbell ")]
        assert len(commands) >= 6
        parser = cli.build_parser()
        for argv in commands:
            parser.parse_args(argv)
