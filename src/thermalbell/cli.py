"""Command-line surface: analytic | bell | quantum | simulate | correlate.

Every command takes --config (JSON) and flag overrides, writes deterministic
primary outputs (CSV/JSON/SPKL) for a fixed config+seed, and echoes the merged
config plus a timestamp into a separate ``*.meta.json`` sidecar.

Exit codes: 0 success, 2 configuration error, 3 numeric guard
(truncation/sampling/projection), 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from pathlib import Path

from .config import (AnalyticConfig, BellConfig, CorrelateConfig,
                     QuantumConfig, SimulateConfig, config_dict,
                     load_config_file, merge_config, parse_m_range)
from .errors import ConfigError, NumericGuardError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _write_text(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _write_sidecar(primary: str | None, payload: dict) -> None:
    if primary is None:
        return
    from . import spkl

    spkl.write_sidecar(primary, {**payload, "written_at_unix": time.time()})


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _angle_set(angles: list[float] | None, bound: str):
    """The configured cosine arguments, or the extremal ones for ``bound``."""
    from . import bell

    if angles is None:
        return bell.default_angles(bound)
    if len(angles) != 4:
        raise ConfigError("angles must list the four cosine arguments")
    return bell.AngleSet(*angles)


# ---------------------------------------------------------------- analytic

def cmd_analytic(cfg: AnalyticConfig) -> int:
    import numpy as np

    from . import analytic, permanents
    from .sources import tls

    ms = parse_m_range(cfg.m_range)
    model = tls(cfg.nbar, cfg.field_amp)

    if cfg.curve == "visibility":
        rows = []
        for m in ms:
            frac = analytic.visibility_tls_exact(m)
            rows.append([m, m + 1, f"{frac.numerator}/{frac.denominator}",
                         repr(float(frac))])
        text = _csv_text(
            ["m", "order_m_plus_1", "visibility_exact_fraction",
             "visibility_dimensionless"], rows)
        _write_text(cfg.out, text)
        _write_sidecar(cfg.out, {"command": "analytic", "config": config_dict(cfg)})
        return EXIT_OK

    if cfg.curve != "correlation":
        raise ConfigError(f"curve must be 'visibility' or 'correlation', got {cfg.curve!r}")

    header = ["m", "delta_rad", "g_plus", "g_minus",
              "g_plus_normalized", "g_minus_normalized", "visibility_dimensionless"]
    if cfg.oracle:
        header += ["oracle_plus_normalized", "oracle_rel_dev"]
    rows = []
    max_dev = 0.0
    deltas = np.linspace(-math.pi, math.pi, cfg.delta_points)
    for m in ms:
        for d in deltas:
            cset = analytic.gm1_tls_set(m, d, 0.0, model, cfg.vis_override)
            norm_plus = analytic.gm1_tls_normalized(m, d, 0.0, cfg.vis_override)
            norm_minus = analytic.gm1_tls_normalized(m, d + math.pi, 0.0, cfg.vis_override)
            row = [m, repr(float(d)), repr(cset.values[analytic.PAIR_DD]),
                   repr(cset.values[analytic.PAIR_DP]), repr(norm_plus),
                   repr(norm_minus), repr(cset.visibility)]
            if cfg.oracle:
                oracle = permanents.gm1_from_permanent(m, d, 0.0, model)
                dev = abs(oracle.normalized - norm_plus) / norm_plus
                max_dev = max(max_dev, dev)
                row += [repr(oracle.normalized), repr(dev)]
            rows.append(row)
    text = _csv_text(header, rows)
    _write_text(cfg.out, text)
    _write_sidecar(cfg.out, {"command": "analytic", "config": config_dict(cfg)})
    if cfg.oracle:
        print(f"max oracle relative deviation: {max_dev:.3e}")
    return EXIT_OK


# -------------------------------------------------------------------- bell

_BELL_MODELS = {
    "four-term": "four_term_tls",
    "six-term-spe": "six_term_spe",
    "six-term-tls": "six_term_tls",
}


def cmd_bell(cfg: BellConfig) -> int:
    from . import analytic, bell

    if cfg.model not in _BELL_MODELS:
        raise ConfigError(f"model must be one of {sorted(_BELL_MODELS)}, got {cfg.model!r}")
    model_tag = bell.BellModel(_BELL_MODELS[cfg.model])

    if (cfg.vis is None) == (cfg.m is None):
        raise ConfigError("provide exactly one of --vis or --m")
    if cfg.m is not None:
        if cfg.m < 1:
            raise ConfigError(f"m must be >= 1, got {cfg.m}")
        visibility = analytic.visibility_tls(cfg.m)
    else:
        visibility = cfg.vis
        if not 0.0 <= visibility <= 1.0:
            raise ConfigError(f"visibility must lie in [0, 1], got {visibility}")

    if cfg.bound not in ("upper", "lower", "both"):
        raise ConfigError(f"bound must be upper, lower or both, got {cfg.bound!r}")
    bounds = [bell.Bound.UPPER, bell.Bound.LOWER] if cfg.bound == "both" \
        else [bell.Bound(cfg.bound)]

    reports = []
    for bound in bounds:
        angles = _angle_set(cfg.angles, bound)
        report = bell.bell_statistic(model_tag, visibility, angles)
        entry = report.to_dict()
        entry["bound_tested"] = bound.value
        entry["angles"] = list(angles.arguments)
        entry["bracket"] = angles.bracket()
        reports.append(entry)

    payload = {
        "reports": reports,
        "thresholds": {
            "six_term_upper": bell.threshold_visibility(
                bell.BellModel.SIX_TERM_TLS, bell.Bound.UPPER),
            "six_term_lower": bell.threshold_visibility(
                bell.BellModel.SIX_TERM_TLS, bell.Bound.LOWER),
            "four_term_upper": bell.threshold_visibility(
                bell.BellModel.FOUR_TERM_TLS, bell.Bound.UPPER),
            "four_term_lower": bell.threshold_visibility(
                bell.BellModel.FOUR_TERM_TLS, bell.Bound.LOWER),
        },
        "min_violating_m": bell.min_violating_m(),
        "visibility_used": visibility,
        "model": cfg.model,
    }
    if cfg.scan_step is not None:
        extrema = bell.angle_scan(model_tag, visibility, cfg.scan_step)
        payload["angle_scan"] = [
            {"arguments": list(a.arguments), "statistic": s} for a, s in extrema]
    _write_text(cfg.out, _json_text(payload))
    _write_sidecar(cfg.out, {"command": "bell", "config": config_dict(cfg)})
    return EXIT_OK


# ----------------------------------------------------------------- quantum

def cmd_quantum(cfg: QuantumConfig) -> int:
    import numpy as np

    from . import analytic, fock
    from .sources import tls

    ms = parse_m_range(cfg.m_range)
    cross_rows = []
    max_c_dev = 0.0
    for nbar in cfg.nbar:
        for d1 in cfg.delta1:
            for m in ms:
                dim = cfg.dim if cfg.dim is not None else fock.suggest_dim(nbar, m)
                c = fock.cm_coefficient(nbar, m, d1, dim=dim,
                                        field_amp=cfg.field_amp)
                expected = analytic.visibility_tls(m)
                dev = abs(abs(c) - expected)
                max_c_dev = max(max_c_dev, dev)
                cross_rows.append({
                    "m": m, "nbar": nbar, "delta1": d1, "dim": dim,
                    "c_abs": abs(c), "c_expected": expected, "deviation": dev,
                })

    gm1_rows = []
    max_gm1_dev = 0.0
    for nbar in cfg.nbar:
        dim = cfg.dim if cfg.dim is not None else fock.suggest_dim(nbar, max(ms) + 1)
        state = fock.thermal_state(nbar, dim)
        model = tls(nbar, cfg.field_amp)
        for m in ms:
            for d in np.linspace(0.0, math.pi, cfg.gm1_deltas):
                got = fock.expect_gm1(state, m, d, 0.0, cfg.field_amp)
                want = analytic.gm1_tls_set(m, d, 0.0, model).values[analytic.PAIR_DD]
                rel = abs(got - want) / want
                max_gm1_dev = max(max_gm1_dev, rel)
                gm1_rows.append({"m": m, "nbar": nbar, "delta": float(d),
                                 "fock": got, "closed_form": want,
                                 "rel_dev": rel})

    payload = {
        "cross_correlation": cross_rows,
        "max_c_deviation": max_c_dev,
        "gm1_check": gm1_rows,
        "max_gm1_rel_dev": max_gm1_dev,
    }
    _write_text(cfg.out, _json_text(payload))
    _write_sidecar(cfg.out, {"command": "quantum", "config": config_dict(cfg)})
    return EXIT_OK


# ---------------------------------------------------------------- simulate

def cmd_simulate(cfg: SimulateConfig) -> int:
    import contextlib
    import resource

    import numpy as np

    from . import blas, speckle, spkl
    from .sources import tls

    if cfg.out is None:
        raise ConfigError("simulate requires --out for the SPKL file")
    geom = speckle.Geometry(
        wavelength=cfg.wavelength, slit_separation=cfg.slit_separation,
        slit_width=cfg.slit_width, propagation=cfg.propagation,
        pixel_pitch=cfg.pixel_pitch, width=cfg.width, height=cfg.height)
    model = tls(cfg.nbar, cfg.field_amp)

    # per-frame sums, added exactly at the end, so the summary does not
    # depend on how the frames were chunked
    frame_sum = np.empty(cfg.n_frames)
    frame_sum_sq = np.empty(cfg.n_frames)
    start = 0
    # every row of a frame carries the same intensities
    rows = np.empty((min(cfg.chunk, cfg.n_frames), geom.height, geom.width),
                    dtype=np.float32)
    blas_before = blas.threads()
    started = time.perf_counter()
    chunks = speckle.iter_intensity_chunks(
        geom, model, cfg.n_frames, cfg.tau_ratio, cfg.substeps,
        cfg.n_subsources, cfg.seed, cfg.slits, cfg.chunk)
    # closing: a failed write joins the generator's workers before the
    # writer removes its temporary file
    with spkl.SpklWriter(cfg.out, cfg.n_frames, geom.height, geom.width,
                         cfg.tau_ratio, cfg.seed) as writer, contextlib.closing(chunks):
        for block in chunks:
            out = rows[:block.shape[0]]
            out[...] = block[:, None, :]
            writer.write(out)
            b64 = block.astype(np.float64)
            stop = start + block.shape[0]
            frame_sum[start:stop] = b64.sum(axis=1)
            frame_sum_sq[start:stop] = (b64 * b64).sum(axis=1)
            start = stop
    generate_write_s = time.perf_counter() - started

    count = cfg.n_frames * geom.width
    mean_intensity = math.fsum(frame_sum) / count
    variance = max(0.0, math.fsum(frame_sum_sq) / count - mean_intensity**2)
    contrast = math.sqrt(variance) / mean_intensity if mean_intensity > 0 else 0.0

    summary = {
        "mean_intensity": mean_intensity,
        "speckle_contrast": contrast,
        "fringe_period_m": geom.fringe_period,
        "fringe_period_px": geom.fringe_period_px,
        "n_frames": cfg.n_frames,
    }
    _write_sidecar(cfg.out, {
        "command": "simulate",
        "config": config_dict(cfg),
        "geometry": geom.to_dict(),
        "substeps": cfg.substeps,
        "n_subsources": cfg.n_subsources,
        "slits": cfg.slits,
        "summary": summary,
        "diagnostics": {
            "workers": speckle._worker_count(-(-cfg.n_frames // cfg.chunk)),
            "blas_pinned": blas_before is not None,
            "blas_threads_before": blas_before,
            "generate_write_s": generate_write_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        },
    })
    print(f"wrote {cfg.n_frames} frames to {cfg.out}: "
          f"mean intensity {mean_intensity:.6g}, speckle contrast {contrast:.4f}, "
          f"fringe period {geom.fringe_period * 1e3:.4f} mm "
          f"({geom.fringe_period_px:.2f} px)")
    return EXIT_OK


# --------------------------------------------------------------- correlate

def _parse_span(text: str, limit: int) -> range:
    try:
        lo, hi = text.split(":")
        lo_i = int(lo) if lo else 0
        hi_i = int(hi) if hi else limit
    except ValueError as exc:
        raise ConfigError(f"cannot parse pixel range {text!r} (use 'start:stop')") from exc
    if not (0 <= lo_i < hi_i <= limit):
        raise ConfigError(f"pixel range {text!r} outside [0, {limit})")
    return range(lo_i, hi_i)


def cmd_correlate(cfg: CorrelateConfig) -> int:
    import numpy as np

    from . import analytic, correlate, speckle, spkl

    if cfg.frames is None:
        raise ConfigError("correlate requires --frames pointing at an SPKL file")
    if cfg.out is None:
        raise ConfigError("correlate requires --out as an output stem")

    header = spkl.read_header(cfg.frames)
    try:
        meta = spkl.read_sidecar(cfg.frames)
    except FileNotFoundError:
        meta = {}
    if "geometry" not in meta:
        raise ConfigError(
            f"no geometry available for {cfg.frames}; sidecar "
            f"{spkl.sidecar_path(cfg.frames)} is missing")
    geom = speckle.Geometry.from_dict(meta["geometry"])
    # fail before the pass over the stack, not after it
    correlate._check_sampling(header.n_frames, cfg.block_len, cfg.n_boot)

    ms = parse_m_range(cfg.m_range)
    phase = geom.phase_map()
    x1 = cfg.x1 if cfg.x1 is not None else int(np.argmin(np.abs(phase)))
    y2 = cfg.y2 if cfg.y2 is not None else geom.height - 1
    scan = _parse_span(cfg.x2_range, geom.width) if cfg.x2_range is not None \
        else range(geom.width)

    def rows_for(m: int) -> list[int]:
        return cfg.y1_rows if cfg.y1_rows is not None else list(range(m))

    # one pass over the stack for every m and every Bell realization
    cells = [cell for m in ms for cell in correlate.gm1_cells(x1, rows_for(m), scan, y2)]
    if cfg.bell:
        bell_m = cfg.bell_m if cfg.bell_m is not None else max(ms)
        angles = _angle_set(cfg.angles, cfg.bound)
        cells += correlate.bell_cells(geom, angles, rows_for(bell_m), y2,
                                      cfg.realizations)
    stage_s: dict[str, float] = {}
    started = time.perf_counter()
    collected = correlate.CellTable(cfg.frames, cells)
    stage_s["collect"] = time.perf_counter() - started

    started = time.perf_counter()
    out_stem = Path(cfg.out)
    vis_rows = []
    table = []
    for m in ms:
        curve = correlate.estimate_gm1(
            collected, m, x1, rows_for(m), scan, y2, n_boot=cfg.n_boot,
            block_len=cfg.block_len, boot_seed=cfg.boot_seed, shuffle=cfg.shuffle)
        estimate = correlate.fit_visibility(curve, geom)
        curve_rows = [[int(c), repr(float(phase[c])), repr(float(v)), repr(float(s))]
                      for c, v, s in zip(curve.x2_positions, curve.values, curve.stderr)]
        path = out_stem.parent / f"{out_stem.name}_curve_m{m}.csv"
        path.write_text(_csv_text(
            ["x2_pixel", "delta_rad", "g_value_dimensionless", "stderr_dimensionless"],
            curve_rows))
        v_theory = analytic.visibility_tls(m)
        vis_rows.append([m, repr(v_theory), repr(estimate.value),
                         repr(estimate.stderr), repr(estimate.fit_residual)])
        table.append({"m": m, "v_theory": v_theory, "v_hat": estimate.value,
                      "stderr": estimate.stderr,
                      "fit_residual": estimate.fit_residual,
                      "curve_csv": path.name})
        print(f"m={m}: V_hat = {estimate.value:.4f} +- {estimate.stderr:.4f} "
              f"(theory {v_theory:.4f})")

    vis_path = out_stem.parent / f"{out_stem.name}_visibility.csv"
    vis_path.write_text(_csv_text(
        ["m", "v_theory_dimensionless", "v_hat_dimensionless",
         "stderr_dimensionless", "fit_residual_dimensionless"], vis_rows))
    stage_s["curves"] = time.perf_counter() - started

    payload: dict = {"visibility_table": table, "n_frames": collected.n_frames,
                     "x1": x1, "y2": y2,
                     "x2_range": [scan.start, scan.stop]}

    if cfg.bell:
        started = time.perf_counter()
        report = correlate.bell_from_frames(
            collected, bell_m, angles, geom, y1_rows=rows_for(bell_m), y2=y2,
            n_realizations=cfg.realizations, n_boot=cfg.n_boot,
            block_len=cfg.block_len, boot_seed=cfg.boot_seed, shuffle=cfg.shuffle)
        stage_s["bell"] = time.perf_counter() - started
        payload["bell"] = report.to_dict()
        verdict = "VIOLATED" if (report.violates_upper or report.violates_lower) \
            else "not violated"
        print(f"bell m={bell_m}: statistic = {report.statistic:.5f} "
              f"+- {report.stderr:.5f} ({verdict} at >= 2 stderr)")

    report_path = out_stem.parent / f"{out_stem.name}_report.json"
    report_path.write_text(_json_text(payload))
    _write_sidecar(str(report_path), {
        "command": "correlate",
        "config": config_dict(cfg),
        "diagnostics": {
            "n_cells": collected.n_cells,
            "block_len": cfg.block_len,
            "n_blocks": -(-collected.n_frames // cfg.block_len),
            "n_boot": cfg.n_boot,
            "stage_s": stage_s,
        },
    })
    return EXIT_OK


# ------------------------------------------------------------------ driver

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its fields")
    parser.add_argument("--out", help="output path (stem for correlate)")


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermalbell",
        description="Higher-order photon correlations of thermal source pairs "
                    "and CH74 Bell tests: closed forms, exact quantum checks, "
                    "and a synthetic speckle experiment.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", help="closed-form correlation/visibility tables")
    _add_common(p)
    p.add_argument("--m", dest="m_range", help="m range, e.g. 1..8")
    p.add_argument("--curve", choices=["visibility", "correlation"])
    p.add_argument("--delta-points", type=int, dest="delta_points")
    p.add_argument("--vis-override", type=float, dest="vis_override")
    p.add_argument("--nbar", type=float)
    p.add_argument("--field-amp", type=float, dest="field_amp")
    p.add_argument("--oracle", action="store_const", const=True,
                   help="add permanent-oracle cross-check columns")

    p = sub.add_parser("bell", help="CH74 statistics, thresholds, minimal m")
    _add_common(p)
    p.add_argument("--four-term", dest="model", action="store_const",
                   const="four-term")
    p.add_argument("--six-term", dest="model", action="store_const",
                   const="six-term-tls")
    p.add_argument("--model", dest="model", choices=sorted(_BELL_MODELS))
    p.add_argument("--vis", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--bound", choices=["upper", "lower", "both"])
    p.add_argument("--angles", type=_float_list,
                   help="four cosine arguments, comma separated, radians")
    p.add_argument("--scan-step", type=float, dest="scan_step",
                   help="also grid-scan arguments at this step")

    p = sub.add_parser("quantum", help="truncated Fock-space cross checks")
    _add_common(p)
    p.add_argument("--m", dest="m_range", help="m range, e.g. 1..4")
    p.add_argument("--nbar", type=_float_list, help="mean photon numbers, comma separated")
    p.add_argument("--delta1", type=_float_list, help="detection phases, comma separated")
    p.add_argument("--dim", type=int)
    p.add_argument("--field-amp", type=float, dest="field_amp")
    p.add_argument("--gm1-deltas", type=int, dest="gm1_deltas")

    p = sub.add_parser("simulate", help="generate synthetic camera frames (SPKL)")
    _add_common(p)
    p.add_argument("--frames", type=int, dest="n_frames")
    p.add_argument("--tau-ratio", type=float, dest="tau_ratio")
    p.add_argument("--substeps", type=int)
    p.add_argument("--subsources", type=int, dest="n_subsources")
    p.add_argument("--slits", type=int, choices=[1, 2])
    p.add_argument("--seed", type=int)
    p.add_argument("--nbar", type=float)
    p.add_argument("--field-amp", type=float, dest="field_amp")
    p.add_argument("--wavelength", type=float)
    p.add_argument("--slit-separation", type=float, dest="slit_separation")
    p.add_argument("--slit-width", type=float, dest="slit_width")
    p.add_argument("--propagation", type=float)
    p.add_argument("--pixel-pitch", type=float, dest="pixel_pitch")
    p.add_argument("--grid-width", type=int, dest="width")
    p.add_argument("--grid-height", type=int, dest="height")

    p = sub.add_parser("correlate", help="estimate correlations/visibility from SPKL frames")
    _add_common(p)
    p.add_argument("--frames", help="input SPKL file")
    p.add_argument("--m", dest="m_range", help="m range, e.g. 1..6")
    p.add_argument("--x1", type=int)
    p.add_argument("--y1-rows", type=_int_list, dest="y1_rows")
    p.add_argument("--y2", type=int)
    p.add_argument("--x2-range", dest="x2_range", help="scan columns 'start:stop'")
    p.add_argument("--boot", type=int, dest="n_boot")
    p.add_argument("--block", type=int, dest="block_len")
    p.add_argument("--boot-seed", type=int, dest="boot_seed")
    p.add_argument("--shuffle", action="store_const", const=True,
                   help="shuffled-frame control (destroys correlations)")
    p.add_argument("--bell", action="store_const", const=True,
                   help="also evaluate the CH74 statistic from frames")
    p.add_argument("--bell-m", type=int, dest="bell_m")
    p.add_argument("--realizations", type=int)
    p.add_argument("--bound", choices=["upper", "lower"])
    p.add_argument("--angles", type=_float_list)

    return parser


_COMMANDS = {
    "analytic": (AnalyticConfig, cmd_analytic),
    "bell": (BellConfig, cmd_bell),
    "quantum": (QuantumConfig, cmd_quantum),
    "simulate": (SimulateConfig, cmd_simulate),
    "correlate": (CorrelateConfig, cmd_correlate),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    command = args.pop("command")
    config_path = args.pop("config", None)
    cls, runner = _COMMANDS[command]
    try:
        file_data = load_config_file(config_path) if config_path else None
        cfg = merge_config(cls, file_data, args)
        return runner(cfg)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericGuardError, ArithmeticError) as exc:
        print(f"numeric guard: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
