"""Run configuration records for the command-line interface.

Each subcommand owns one dataclass.  A run is fully determined by the config
(JSON object) plus nothing else: defaults < config file < explicit CLI flags,
and the merged record is echoed into the output sidecar so any run can be
reproduced bit-identically from its config alone.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError


def load_config_file(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top-level config must be a JSON object")
    return data


def _coerce(name: str, value, annotation):
    origin = typing.get_origin(annotation)
    if origin is typing.Union:
        args = [a for a in typing.get_args(annotation) if a is not type(None)]
        if value is None:
            return None
        return _coerce(name, value, args[0])
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"field '{name}': expected a list, got {value!r}")
        (inner,) = typing.get_args(annotation)[:1] or (float,)
        return [_coerce(name, v, inner) for v in value]
    if annotation is bool:
        if isinstance(value, bool):
            return value
        raise ConfigError(f"field '{name}': expected true/false, got {value!r}")
    if annotation is int:
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or int(value) != value:
            raise ConfigError(f"field '{name}': expected an integer, got {value!r}")
        return int(value)
    if annotation is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"field '{name}': expected a number, got {value!r}")
        return float(value)
    if annotation is str:
        if not isinstance(value, str):
            raise ConfigError(f"field '{name}': expected a string, got {value!r}")
        return value
    return value


def merge_config(cls, file_data: dict | None, overrides: dict):
    """Defaults < config file < CLI overrides (None means not given)."""
    hints = typing.get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    values: dict = {}
    if file_data:
        unknown = set(file_data) - names
        if unknown:
            raise ConfigError(
                f"unknown config field(s) {sorted(unknown)}; valid fields: {sorted(names)}")
        for key, val in file_data.items():
            values[key] = _coerce(key, val, hints[key])
    for key, val in overrides.items():
        if val is None:
            continue
        if key not in names:
            raise ConfigError(f"unknown option '{key}'")
        values[key] = _coerce(key, val, hints[key])
    try:
        return cls(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def config_dict(cfg) -> dict:
    return dataclasses.asdict(cfg)


def parse_m_range(text: str) -> list[int]:
    """'1..8' or '3' or '1,2,5' -> list of m values."""
    text = text.strip()
    if not text:
        raise ConfigError("empty m range")
    try:
        if ".." in text:
            lo, hi = text.split("..")
            lo_i, hi_i = int(lo), int(hi)
            if hi_i < lo_i:
                raise ValueError
            return list(range(lo_i, hi_i + 1))
        if "," in text:
            return [int(tok) for tok in text.split(",")]
        return [int(text)]
    except ValueError as exc:
        raise ConfigError(f"cannot parse m range {text!r} (use '1..8', '3' or '1,2,5')") from exc


GEOMETRY_FIELDS = ("wavelength", "slit_separation", "slit_width", "propagation",
                   "pixel_pitch", "width", "height")


@dataclass
class AnalyticConfig:
    m_range: str = "1..8"
    curve: str = "visibility"          # visibility | correlation
    delta_points: int = 64
    vis_override: float | None = None
    nbar: float = 1.0
    field_amp: float = 1.0
    oracle: bool = False
    out: str | None = None


@dataclass
class BellConfig:
    model: str = "four-term"           # four-term | six-term-spe | six-term-tls
    vis: float | None = None
    m: int | None = None
    bound: str = "both"                # upper | lower | both
    angles: list[float] | None = None  # four cosine arguments, radians
    scan_step: float | None = None
    out: str | None = None


@dataclass
class QuantumConfig:
    m_range: str = "1..4"
    nbar: list[float] = field(default_factory=lambda: [0.2])
    delta1: list[float] = field(default_factory=lambda: [0.0])
    dim: int | None = None
    field_amp: float = 1.0
    gm1_deltas: int = 5
    out: str | None = None


@dataclass
class SimulateConfig:
    n_frames: int = 10000
    tau_ratio: float = 0.06
    substeps: int = 8
    n_subsources: int = 64
    slits: int = 2
    seed: int = 0
    nbar: float = 1.0
    field_amp: float = 1.0
    wavelength: float = 532e-9
    slit_separation: float = 200e-6
    slit_width: float = 25e-6
    propagation: float = 0.3
    pixel_pitch: float = 5.5e-6
    width: int = 512
    height: int = 8
    chunk: int = 4096
    out: str | None = None

    def __post_init__(self):
        # the SPKL header stores the frame count as u32 and the seed as u64
        if not 1 <= self.n_frames <= 2**32 - 1:
            raise ConfigError(
                f"n_frames must lie in [1, {2**32 - 1}], got {self.n_frames}")
        if not 0 <= self.seed <= 2**64 - 1:
            raise ConfigError(f"seed must lie in [0, {2**64 - 1}], got {self.seed}")


@dataclass
class CorrelateConfig:
    frames: str | None = None
    m_range: str = "1..6"
    x1: int | None = None              # default: column with phase closest to 0
    y1_rows: list[int] | None = None   # default: rows 0..m-1
    y2: int | None = None              # default: last row
    x2_range: str | None = None        # "start:stop", default full width
    n_boot: int = 200
    block_len: int = 64
    boot_seed: int = 0
    shuffle: bool = False
    bell: bool = False
    bell_m: int | None = None          # default: largest m in m_range
    realizations: int = 6
    bound: str = "upper"
    angles: list[float] | None = None
    out: str | None = None
