import csv
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from thermalbell import cli

SIM_ARGS = ["--frames", "1500", "--tau-ratio", "0.01", "--substeps", "2",
            "--subsources", "16", "--pixel-pitch", "8e-6", "--grid-width", "128",
            "--grid-height", "8", "--seed", "11"]


def run(args):
    return cli.main(args)


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

    def test_oracle_precision_fault_is_numeric_guard(self, tmp_path, capsys):
        """The size-16 permanent loses precision and raises ArithmeticError."""
        assert run(["analytic", "--m", "15", "--curve", "correlation", "--oracle",
                    "--delta-points", "8", "--out", str(tmp_path / "c.csv")]) == 3
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

    def test_requires_vis_or_m(self):
        assert run(["bell", "--four-term"]) == 2
        assert run(["bell", "--four-term", "--m", "3", "--vis", "0.5"]) == 2

    def test_bad_visibility_rejected(self):
        assert run(["bell", "--four-term", "--vis", "1.5"]) == 2


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

    def test_under_truncation_exit_code(self, tmp_path):
        assert run(["quantum", "--m", "1", "--nbar", "2.0", "--dim", "4",
                    "--out", str(tmp_path / "q.json")]) == 3


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

    def test_missing_frames_file_is_io_error(self, tmp_path):
        assert run(["correlate", "--frames", str(tmp_path / "nope.spkl"),
                    "--m", "1", "--out", str(tmp_path / "x")]) == 4

    def test_missing_sidecar_is_config_error(self, stack, tmp_path):
        (tmp_path / "frames.spkl.meta.json").unlink()
        assert run(["correlate", "--frames", str(stack), "--m", "1",
                    "--out", str(tmp_path / "x")]) == 2


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
