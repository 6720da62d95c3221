"""Command-line surface: analytic | bell | quantum | simulate | correlate.

Every command takes --config (JSON) and flag overrides, writes deterministic
primary outputs (CSV/JSON/SPKL) for a fixed config+seed, and echoes the merged
config plus a timestamp into a separate ``*.meta.json`` sidecar.  A command
computes all of its files before it writes any, and ``_publish`` writes them
through ``spkl.AtomicFile`` as one set, renaming none until all are written:
a failed run leaves no file that looks valid.  A new SPKL stack removes the
sidecar of the one it replaces.

Exit codes: 0 success, 2 configuration error, 3 numeric guard
(truncation/sampling/projection), 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import time
import typing
from pathlib import Path

from .config import (AnalyticConfig, BellConfig, CorrelateConfig,
                     QuantumConfig, SimulateConfig, load_config_file,
                     merge_config, parse_m_range)
from .errors import ConfigError, NumericGuardError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _publish(outputs: dict, sidecar_of: str | Path, command: str, cfg, **meta) -> None:
    """Write a command's computed text ``outputs`` {path: text} and the
    sidecar of ``sidecar_of`` echoing the command, its merged config and
    ``meta``, as one set: no file is renamed into place until all are
    written, and the last output and the sidecar are renamed last."""
    from . import spkl

    spkl.write_sidecar(sidecar_of, {"command": command, "config": dataclasses.asdict(cfg),
                                    **meta, "written_at_unix": time.time()}, outputs)


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _emit(command: str, cfg, text: str, stage_s: dict[str, float], **diagnostics) -> None:
    """A command's one text output: to --out with its sidecar, whose
    diagnostics carry the command's ``stage_s``, its other ``diagnostics``
    and peak RSS, or to stdout."""
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        _publish({cfg.out: text}, cfg.out, command, cfg,
                 diagnostics={"stage_s": stage_s, **diagnostics, "peak_rss_mb": _peak_rss_mb()})


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _check_scale(model, ms: list[int]) -> None:
    """Refuse a field amplitude and mean photon number whose correlation
    scale (E0^2 <n>)^(m+1) leaves double precision at the largest m >= 1.

    The closed form forms E0^(2(m+1)) and <n>^(m+1) apart, and the permanent
    adds up products as large as (4(m+1))^(m+1) times the scale, so each of
    the three powers must stay that far inside the normal range.  The test
    runs on logarithms, which cannot overflow; the powers grow with m, so
    the largest m decides.  Past m = 114 the headroom alone leaves the
    double range, and no scale fits.
    """
    orders = [m for m in ms if m >= 1]
    if not orders:
        return
    m = max(orders)
    limit = 1022 - (m + 1) * math.log2(4 * (m + 1))
    log_amp = 2 * (m + 1) * math.log2(model.field_amp)
    log_nbar = (m + 1) * math.log2(model.mean_photons) if model.mean_photons > 0 else -math.inf
    refused = f"--field-amp {model.field_amp:g} and --nbar {model.mean_photons:g} at m = {m}: "
    if limit < 0:
        raise NumericGuardError(
            refused + "no correlation scale (E0^2 nbar)^(m+1) fits, as the headroom of the "
            "closed form and the permanent alone exceeds the double range; lower m")
    if not all(abs(x) <= limit for x in (log_amp, log_nbar, log_amp + log_nbar)):
        raise NumericGuardError(
            refused + f"the correlation scale (E0^2 nbar)^(m+1), or its factor E0^(2(m+1)) "
            f"or nbar^(m+1), lies outside 2^-{limit:.0f}..2^{limit:.0f}, the double range "
            f"less the headroom of the closed form and the permanent; bring E0^2 nbar "
            f"nearer 1 or lower m")


# simulate's frames need E0^2 nbar within 2^-64 .. 2^64: 2^62 of room to
# either end of float32's normal range, 2^-126 .. 2^128
FRAME_SCALE_BITS = 64


def _check_frame_scale(model) -> None:
    """Refuse a field amplitude and mean photon number whose frames float32
    cannot hold, before any frame is made.

    A pixel's mean intensity is E0^2 nbar per slit, and speckle spreads the
    pixels exponentially about it; within ``FRAME_SCALE_BITS`` no pixel
    overflows to inf or falls to zero.  The test runs on logarithms, which
    cannot overflow.  ``--nbar 0`` makes a dark stack.
    """
    if model.mean_photons == 0:
        return
    log_scale = 2 * math.log2(model.field_amp) + math.log2(model.mean_photons)
    if abs(log_scale) > FRAME_SCALE_BITS:
        raise NumericGuardError(
            f"--field-amp {model.field_amp:g} and --nbar {model.mean_photons:g}: the mean "
            f"intensity E0^2 nbar = 2^{log_scale:.1f} lies outside "
            f"2^-{FRAME_SCALE_BITS}..2^{FRAME_SCALE_BITS}, where float32 frames hold every "
            "speckle pixel; bring E0^2 nbar nearer 1")


# ---------------------------------------------------------------- analytic

def cmd_analytic(cfg: AnalyticConfig) -> int:
    from . import analytic
    from .sources import tls

    ms = parse_m_range(cfg.m_range)
    model = tls(cfg.nbar, cfg.field_amp)
    started = time.perf_counter()

    if cfg.curve == "visibility":
        rows = []
        for m in ms:
            frac = analytic.visibility_tls_exact(m)
            rows.append([m, m + 1, f"{frac.numerator}/{frac.denominator}",
                         repr(float(frac))])
        _emit("analytic", cfg, _csv_text(
            ["m", "order_m_plus_1", "visibility_exact_fraction",
             "visibility_dimensionless"], rows),
            {"table": time.perf_counter() - started})
        return EXIT_OK

    import numpy as np

    from . import blas, permanents

    _check_scale(model, ms)

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
    _emit("analytic", cfg, _csv_text(header, rows), {"table": time.perf_counter() - started},
          **blas.kernels())
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

    model_tag = bell.BellModel(_BELL_MODELS[cfg.model])

    if cfg.model == "six-term-spe" and cfg.m is not None:
        raise ConfigError("--m sets the thermal visibility m/(m+2), which --model "
                          "six-term-spe does not follow; set its visibility with --vis")
    if (cfg.vis is None) == (cfg.m is None):
        raise ConfigError("provide exactly one of --vis or --m")
    visibility = analytic.visibility_tls(cfg.m) if cfg.m is not None else cfg.vis

    bounds = [bell.Bound.UPPER, bell.Bound.LOWER] if cfg.bound == "both" \
        else [bell.Bound(cfg.bound)]

    started = time.perf_counter()
    reports = []
    for bound in bounds:
        angles = bell.angle_set(cfg.angles, bound)
        report = bell.bell_statistic(model_tag, visibility, angles)
        entry = report.to_dict()
        entry["bound_tested"] = bound.value
        entry["angles"] = list(angles.arguments)
        entry["bracket"] = angles.bracket()
        reports.append(entry)

    payload = {
        "reports": reports,
        "thresholds": {f"{name}_{bound.value}": bell.threshold_visibility(tag, bound)
                       for name, tag in (("six_term", bell.BellModel.SIX_TERM_TLS),
                                         ("four_term", bell.BellModel.FOUR_TERM_TLS))
                       for bound in bell.Bound},
        "min_violating_m": bell.min_violating_m(),
        "visibility_used": visibility,
        "model": cfg.model,
    }
    stage_s = {"statistics": time.perf_counter() - started}
    if cfg.scan_step is not None:
        started = time.perf_counter()
        extrema = bell.angle_scan(model_tag, visibility, cfg.scan_step)
        stage_s["scan"] = time.perf_counter() - started
        payload["angle_scan"] = [
            {"arguments": list(a.arguments), "statistic": s} for a, s in extrema]
    _emit("bell", cfg, _json_text(payload), stage_s)
    return EXIT_OK


# ----------------------------------------------------------------- quantum

def cmd_quantum(cfg: QuantumConfig) -> int:
    import numpy as np

    from . import analytic, blas, fock
    from .sources import tls

    ms = parse_m_range(cfg.m_range)
    # the gm1 check's last state holds the most bands, max(ms) + 1 detections
    # at the largest cutoff: refuse it before anything is allocated
    detections = max(ms) + 1
    gm1_dims = [cfg.dim if cfg.dim is not None else fock.suggest_dim(nbar, detections)
                for nbar in cfg.nbar]
    models = [tls(nbar, cfg.field_amp) for nbar in cfg.nbar]
    for model in models:
        _check_scale(model, ms)
    needed = fock.state_nbytes(max(gm1_dims), detections)
    physical = _physical_memory()
    if needed > physical:
        raise NumericGuardError(
            f"the Fock state at cutoff {max(gm1_dims)} after {detections} detections "
            f"needs {needed} bytes, more than the {physical} bytes of physical memory; "
            f"lower --dim or the largest m")

    started = time.perf_counter()
    cross_rows = []
    for nbar in cfg.nbar:
        for d1 in cfg.delta1:
            for m in ms:
                dim = cfg.dim if cfg.dim is not None else fock.suggest_dim(nbar, m)
                c = fock.cm_coefficient(nbar, m, d1, dim=dim,
                                        field_amp=cfg.field_amp)
                expected = analytic.visibility_tls(m)
                dev = abs(abs(c) - expected)
                cross_rows.append({
                    "m": m, "nbar": nbar, "delta1": d1, "dim": dim,
                    "c_abs": abs(c), "c_expected": expected, "deviation": dev,
                })

    stage_s = {"cross_correlation": time.perf_counter() - started}

    started = time.perf_counter()
    gm1_rows = []
    for model, dim in zip(models, gm1_dims):
        nbar = model.mean_photons
        state = fock.thermal_state(nbar, dim)
        for m in ms:
            for d in np.linspace(0.0, math.pi, cfg.gm1_deltas):
                got = fock.expect_gm1(state, m, d, 0.0, cfg.field_amp)
                want = analytic.gm1_tls_set(m, d, 0.0, model).values[analytic.PAIR_DD]
                rel = abs(got - want) / want
                gm1_rows.append({"m": m, "nbar": nbar, "delta": float(d),
                                 "fock": got, "closed_form": want,
                                 "rel_dev": rel})

    payload = {
        "cross_correlation": cross_rows,
        # np.max keeps a nan, which max() can drop
        "max_c_deviation": float(np.max([row["deviation"] for row in cross_rows])),
        "gm1_check": gm1_rows,
        "max_gm1_rel_dev": float(np.max([row["rel_dev"] for row in gm1_rows])),
    }
    for key in ("max_c_deviation", "max_gm1_rel_dev"):
        if not math.isfinite(payload[key]):
            raise ArithmeticError(f"the Fock-space check came out {key} = {payload[key]}")
    stage_s["gm1_check"] = time.perf_counter() - started
    _emit("quantum", cfg, _json_text(payload), stage_s, **blas.kernels())
    return EXIT_OK


# ---------------------------------------------------------------- simulate

def cmd_simulate(cfg: SimulateConfig) -> int:
    import contextlib

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
    _check_frame_scale(model)
    # the largest buffers, refused before anything is allocated: a chunk's
    # float32 rows, the complex phase matrix [sources, width] and a chunk's
    # complex draws [frames, substeps, sources]
    batch, n_src = min(cfg.chunk, cfg.n_frames), cfg.n_subsources * cfg.slits
    physical = _physical_memory()
    for flags, what, needed in (
            (f"--frames {cfg.n_frames}, --grid-height {geom.height} and --grid-width "
             f"{geom.width}", "the row buffer", batch * geom.height * geom.width * 4),
            (f"--subsources {cfg.n_subsources}, --slits {cfg.slits} and --grid-width "
             f"{geom.width}", "the phase matrix", n_src * geom.width * 16),
            (f"--frames {cfg.n_frames}, --substeps {cfg.substeps}, --subsources "
             f"{cfg.n_subsources} and --slits {cfg.slits}", "one chunk's draws",
             batch * cfg.substeps * n_src * 16)):
        if needed > physical:
            raise NumericGuardError(f"{flags} make {what} {needed} bytes, more than the "
                                    f"{physical} bytes of physical memory")

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
    _publish({}, cfg.out, "simulate", cfg, geometry=geom.to_dict(),
             substeps=cfg.substeps, n_subsources=cfg.n_subsources, slits=cfg.slits,
             summary=summary, diagnostics={
                 "workers": speckle._worker_count(-(-cfg.n_frames // cfg.chunk)),
                 "blas_pinned": blas_before is not None,
                 "blas_threads_before": blas_before,
                 "generate_write_s": generate_write_s,
                 **blas.kernels(),
                 "peak_rss_mb": _peak_rss_mb(),
             })
    print(f"wrote {cfg.n_frames} frames to {cfg.out}: "
          f"mean intensity {mean_intensity:.6g}, speckle contrast {contrast:.4f}, "
          f"fringe period {geom.fringe_period * 1e3:.4f} mm "
          f"({geom.fringe_period_px:.2f} px)")
    return EXIT_OK


# --------------------------------------------------------------- correlate

def _correlate_texts(result, geom, stem: Path) -> tuple[dict[Path, str], str]:
    """The files ``correlate`` writes for ``result`` (a ``correlate.Analysis``)
    beside ``stem``, {path: text}: a curve CSV per m, the visibility CSV and,
    last, the report JSON; and the lines it prints."""
    from . import analytic

    phase = geom.phase_map()
    outputs: dict[Path, str] = {}
    table = []
    for curve, fit in zip(result.curves, result.fits):
        path = stem.parent / f"{stem.name}_curve_m{curve.m}.csv"
        outputs[path] = _csv_text(
            ["x2_pixel", "delta_rad", "g_value_dimensionless", "stderr_dimensionless"],
            [[int(c), repr(float(phase[c])), repr(float(v)), repr(float(s))]
             for c, v, s in zip(curve.x2_positions, curve.values, curve.stderr)])
        table.append({"m": curve.m, "v_theory": analytic.visibility_tls(curve.m),
                      "v_hat": fit.value, "stderr": fit.stderr,
                      "fit_residual": fit.fit_residual, "curve_csv": path.name})
    outputs[stem.parent / f"{stem.name}_visibility.csv"] = _csv_text(
        ["m", "v_theory_dimensionless", "v_hat_dimensionless",
         "stderr_dimensionless", "fit_residual_dimensionless"],
        [[row["m"], *(repr(row[key]) for key in ("v_theory", "v_hat", "stderr", "fit_residual"))]
         for row in table])
    lines = [f"m={row['m']}: V_hat = {row['v_hat']:.4f} +- {row['stderr']:.4f} "
             f"(theory {row['v_theory']:.4f})\n" for row in table]
    payload: dict = {"visibility_table": table, "n_frames": result.curves[0].n_frames_used,
                     "x1": result.x1, "y2": result.y2,
                     "x2_range": [result.scan.start, result.scan.stop]}
    if (report := result.bell) is not None:
        payload["bell"] = report.to_dict()
        verdict = "VIOLATED" if (report.violates_upper or report.violates_lower) \
            else "not violated"
        lines.append(f"bell m={report.m}: statistic = {report.statistic:.5f} "
                     f"+- {report.stderr:.5f} ({verdict} at >= 2 stderr)\n")
    outputs[stem.parent / f"{stem.name}_report.json"] = _json_text(payload)
    return outputs, "".join(lines)


def cmd_correlate(cfg: CorrelateConfig) -> int:
    from . import correlate, spkl

    if cfg.frames is None:
        raise ConfigError("correlate requires --frames pointing at an SPKL file")
    if cfg.out is None:
        raise ConfigError("correlate requires --out as an output stem")

    geom, _ = spkl.read_geometry(cfg.frames, spkl.read_header(cfg.frames))
    result = correlate.analyze(cfg, cfg.frames, geom)
    # every file is computed before any is written
    outputs, text = _correlate_texts(result, geom, Path(cfg.out))
    sys.stdout.write(text)
    _publish(outputs, list(outputs)[-1], "correlate", cfg,
             diagnostics={**result.diagnostics, "peak_rss_mb": _peak_rss_mb()})
    return EXIT_OK


# ------------------------------------------------------------------ driver

_COMMANDS = {
    "analytic": (AnalyticConfig, cmd_analytic),
    "bell": (BellConfig, cmd_bell),
    "quantum": (QuantumConfig, cmd_quantum),
    "simulate": (SimulateConfig, cmd_simulate),
    "correlate": (CorrelateConfig, cmd_correlate),
}

# Each field is set by the flag of its name with dashes, apart from these;
# SimulateConfig.chunk is set only from a config file.
_RENAMED = {"m_range": "--m", "n_frames": "--frames", "n_subsources": "--subsources",
            "width": "--grid-width", "height": "--grid-height", "n_boot": "--boot",
            "block_len": "--block"}

# switches that set a field to one value: bell's models
_ALIASES = {"model": (("--four-term", "four-term"), ("--six-term", "six-term-tls"))}

# per command: its help, and the help of its flags
_HELP = {
    "analytic": ("closed-form correlation/visibility tables",
                 {"m_range": "m range, e.g. 1..8",
                  "oracle": "add permanent-oracle cross-check columns"}),
    "bell": ("CH74 statistics, thresholds, minimal m",
             {"angles": "four cosine arguments, comma separated, radians",
              "scan_step": "also grid-scan arguments at this step"}),
    "quantum": ("truncated Fock-space cross checks",
                {"m_range": "m range, e.g. 1..4", "nbar": "mean photon numbers, comma separated",
                 "delta1": "detection phases, comma separated"}),
    "simulate": ("generate synthetic camera frames (SPKL)", {}),
    "correlate": ("estimate correlations/visibility from SPKL frames",
                  {"frames": "input SPKL file", "m_range": "m range, e.g. 1..6",
                   "x2_range": "scan columns 'start:stop'",
                   "shuffle": "shuffled-frame control (destroys correlations)",
                   "bell": "also evaluate the CH74 statistic from frames"}),
}


def _tokens(text: str) -> list[str]:
    """The comma-separated values of a list flag; no text is no values, and
    an empty value between commas is refused (exit 2)."""
    tokens = text.split(",") if text.strip() else []
    if any(not tok.strip() for tok in tokens):
        raise argparse.ArgumentTypeError(f"empty value in {text!r}")
    return tokens


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in _tokens(text)]


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in _tokens(text)]


def _flag(annotation) -> dict:
    """The argparse keywords of the flag of a field annotated ``annotation``:
    ``X | None`` as X, a bool as a switch, a Literal's members as choices."""
    members = [a for a in typing.get_args(annotation) if a is not type(None)]
    if type(None) in typing.get_args(annotation):
        return _flag(members[0])
    if annotation is bool:
        return {"action": "store_const", "const": True}
    if typing.get_origin(annotation) is typing.Literal:
        return {"choices": members, **_flag(type(members[0]))}
    if typing.get_origin(annotation) is list:
        return {"type": _float_list if members[0] is float else _int_list}
    return {"type": None if annotation is str else annotation}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermalbell",
        description="Higher-order photon correlations of thermal source pairs "
                    "and CH74 Bell tests: closed forms, exact quantum checks, "
                    "and a synthetic speckle experiment.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (cls, _) in _COMMANDS.items():
        about, helps = _HELP[command]
        p = sub.add_parser(command, help=about)
        p.add_argument("--config", help="JSON config file; flags override its fields")
        helps = {"out": "output path (stem for correlate)", **helps}
        # the fields in their order, but --out second in every command
        fields = sorted(typing.get_type_hints(cls).items(), key=lambda item: item[0] != "out")
        for name, annotation in fields:
            if name == "chunk":
                continue
            for flag, value in _ALIASES.get(name, ()):
                p.add_argument(flag, dest=name, action="store_const", const=value)
            p.add_argument(_RENAMED.get(name, "--" + name.replace("_", "-")), dest=name,
                           help=helps.get(name), **_flag(annotation))
    return parser


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
