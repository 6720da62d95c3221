import csv
import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import thermalbell
from thermalbell import cli

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


def run(args):
    return cli.main(args)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestAnalyticCommand:
    def test_visibility_csv_exact(self, tmp_path):
        out = tmp_path / "vis.csv"
        assert run(["analytic", "--m", "1..8", "--curve", "visibility",
                    "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 8
        for row in rows:
            m = int(row["m"])
            assert Fraction(row["visibility_exact_fraction"]) == Fraction(m, m + 2)
            assert float(row["visibility_dimensionless"]) == m / (m + 2)

    def test_correlation_csv_with_oracle(self, tmp_path, capsys):
        out = tmp_path / "corr.csv"
        assert run(["analytic", "--m", "1..3", "--curve", "correlation",
                    "--delta-points", "16", "--oracle", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 3 * 16
        devs = [float(r["oracle_rel_dev"]) for r in rows]
        assert max(devs) <= 1e-10
        assert "max oracle relative deviation" in capsys.readouterr().out

    def test_oracle_exact_at_largest_sizes(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["analytic", "--m", "14..15", "--curve", "correlation", "--oracle",
                    "--delta-points", "8", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
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

    def test_stdout_when_no_out(self, capsys):
        assert run(["analytic", "--m", "2", "--curve", "visibility"]) == 0
        assert "1/2" in capsys.readouterr().out


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
        (["--model", "six-term-spe", "--vis", "0.9", "--angles", "0.3,1.2,0.4,2.0"],
         "f6317afa8a8782ac0d78d9318913891f460f2686da20fe7333b5e408ec9c3cef"),
        (["--four-term", "--m", "5", "--scan-step", "0.02"],
         "dde18ab9c3e8e0db92caa600b4f1123f524a1cb5b3e7d9e0ca9f879d83c33ace"),
    ])
    def test_golden_report_bytes(self, tmp_path, args, digest):
        out = tmp_path / "bell.json"
        assert run(["bell", *args, "--out", str(out)]) == 0
        assert _sha256(out) == digest

    def test_requires_vis_or_m(self):
        assert run(["bell", "--four-term"]) == 2
        assert run(["bell", "--four-term", "--m", "3", "--vis", "0.5"]) == 2

    def test_bad_visibility_rejected(self):
        assert run(["bell", "--four-term", "--vis", "1.5"]) == 2

    def test_three_angles_rejected(self, capsys):
        assert run(["bell", "--four-term", "--m", "5", "--angles", "1,2,3"]) == 2
        assert "four cosine arguments" in capsys.readouterr().err


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


    def test_golden_exact_workload_bytes(self, tmp_path):
        """Pinned bytes of the quantum report the benchmark's exact workload
        writes."""
        out = tmp_path / "q.json"
        assert run(["quantum", "--m", "1..4", "--nbar", "0.05,0.2,0.5",
                    "--delta1", "0.0,1.3", "--out", str(out)]) == 0
        assert _sha256(out) == \
            "384d0d5ac9ff66177b860e83b89f42a2f7368303cfc12eab2c0399553e3d39bc"


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
                             "generate_write_s", "peak_rss_mb"}
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

    @pytest.mark.parametrize("bad", [["--frames", "-5"], ["--frames", "0"],
                                     ["--frames", str(2**32)], ["--seed", "-1"],
                                     ["--seed", str(2**64)]])
    def test_out_of_range_header_fields(self, tmp_path, capsys, bad):
        out = tmp_path / "x.spkl"
        assert run(["simulate", "--frames", "10", *bad, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


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
        vis_rows = list(csv.DictReader((tmp_path / "run_visibility.csv").open()))
        assert [int(r["m"]) for r in vis_rows] == [1, 2]
        v1 = float(vis_rows[0]["v_hat_dimensionless"])
        assert v1 == pytest.approx(1 / 3, abs=0.05)
        curve = list(csv.DictReader((tmp_path / "run_curve_m1.csv").open()))
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

    def test_block_count_checked_before_reading(self, stack, tmp_path, monkeypatch):
        from thermalbell import correlate
        calls = []
        real = correlate.collect_cells
        monkeypatch.setattr(correlate, "collect_cells",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        assert run(["correlate", "--frames", str(stack), "--m", "1..6", "--bell",
                    "--block", "4000", "--out", str(tmp_path / "x")]) == 3
        assert calls == []

    def test_bell_realizations_found_once(self, stack, tmp_path):
        from thermalbell import correlate
        correlate._bell_realizations.cache_clear()
        assert run(["correlate", "--frames", str(stack), "--m", "1", "--bell",
                    "--realizations", "2", "--boot", "20",
                    "--out", str(tmp_path / "r")]) == 0
        info = correlate._bell_realizations.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_sidecar_diagnostics(self, stack, tmp_path):
        stem = tmp_path / "d"
        assert run(["correlate", "--frames", str(stack), "--m", "1..2", "--bell",
                    "--realizations", "2", "--boot", "30", "--out", str(stem)]) == 0
        meta = json.loads((tmp_path / "d_report.json.meta.json").read_text())
        diag = meta["diagnostics"]
        assert diag["n_blocks"] == 47 and diag["block_len"] == 64
        assert diag["n_boot"] == 30
        # 2 x1 pixels, 128 scan pixels, 2 x 4 Bell columns on 2 rows
        assert 130 < diag["n_cells"] <= 130 + 16
        assert set(diag["stage_s"]) == {"collect", "curves", "bell"}
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
        assert run(["correlate", "--frames", str(stack), "--m", "1..6", "--bell",
                    "--realizations", "2", "--boot", "40",
                    "--out", str(tmp_path / "run")]) == 0
        assert _sha256(tmp_path / "run_report.json") == \
            "856a27472711e763ab5bd8368cdc2bdc9ecd81c1d6d600847873849ee7d1ec0f"
        assert _sha256(tmp_path / "run_curve_m6.csv") == \
            "f5073aefd2cf18f8b7e08e151bf6ebcfbf6c0f6fbf152840a0c094bda6405cff"
        assert _sha256(tmp_path / "run_visibility.csv") == \
            "29342509615545d1bc47c7962ea5201afa7386657794ce83ffb7d7ad7f537ab4"

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
        assert run(["correlate", "--frames", str(stack), "--m", "6", "--bell",
                    "--bound", "lower", "--realizations", "2", "--boot", "40",
                    "--out", str(tmp_path / "low")]) == 0
        assert _sha256(tmp_path / "low_report.json") == \
            "9775f92ca4c948fda83c252ae5248c3c6855753eaf154893ba9d34dea8f8a998"


class TestConfigHandling:
    def test_config_file_drives_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m_range": "1..3", "curve": "visibility"}))
        out = tmp_path / "vis.csv"
        assert run(["analytic", "--config", str(cfg), "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert [int(r["m"]) for r in rows] == [1, 2, 3]

    def test_cli_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m_range": "1..3"}))
        out = tmp_path / "vis.csv"
        assert run(["analytic", "--config", str(cfg), "--m", "5",
                    "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
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
