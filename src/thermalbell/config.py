"""Run configuration records for the command-line interface.

Each subcommand owns one dataclass, and its fields declare the command's
flags: ``cli.build_parser`` derives each flag's name, type and choices from
a field's name and annotation.  A field annotated ``Literal[...]`` takes only
the values listed, from a flag and from a config file alike.  A run is fully
determined by the config (JSON object) plus nothing else: defaults < config
file < explicit CLI flags, and the merged record is echoed into the output
sidecar so any run can be reproduced bit-identically from its config alone.
"""

# No ``from __future__ import annotations``: every start reads the fields'
# annotations to build its flags, and string annotations would be compiled
# each time.
import collections
import json
import math
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal

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
    # Optional[X] is typing.Union; X | None is types.UnionType
    if origin is typing.Union or origin is types.UnionType:
        args = [a for a in typing.get_args(annotation) if a is not type(None)]
        if value is None:
            return None
        return _coerce(name, value, args[0])
    if origin is Literal:
        choices = typing.get_args(annotation)
        # JSON 2.0 is the member 2, as for an int field, but true is not 1
        if isinstance(value, bool) or value not in choices:
            raise ConfigError(f"field '{name}': expected one of {list(choices)}, got {value!r}")
        return type(choices[0])(value)
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
        # JSON and float() both accept nan and inf, and JSON integers have no
        # size limit; no field means any of them
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"field '{name}': expected a finite number, got {value!r}")
        return number
    if annotation is str:
        if not isinstance(value, str):
            raise ConfigError(f"field '{name}': expected a string, got {value!r}")
        return value
    return value


def merge_config(cls, file_data: dict | None, overrides: dict):
    """Defaults < config file < CLI overrides (None means not given)."""
    hints = typing.get_type_hints(cls)      # one per field
    values: dict = {}
    if file_data:
        unknown = set(file_data) - set(hints)
        if unknown:
            raise ConfigError(
                f"unknown config field(s) {sorted(unknown)}; valid fields: {sorted(hints)}")
        for key, val in file_data.items():
            values[key] = _coerce(key, val, hints[key])
    for key, val in overrides.items():
        if val is None:
            continue
        values[key] = _coerce(key, val, hints[key])
    try:
        return cls(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


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
        ms = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse m range {text!r} (use '1..8', '3' or '1,2,5')") from exc
    # a repeated m would be computed and written twice
    repeated = sorted(m for m, count in collections.Counter(ms).items() if count > 1)
    if repeated:
        raise ConfigError(f"m range {text!r} repeats m = {', '.join(map(str, repeated))}")
    return ms


@dataclass
class AnalyticConfig:
    m_range: str = "1..8"
    curve: Literal["visibility", "correlation"] = "visibility"
    delta_points: int = 64
    vis_override: float | None = None
    nbar: float = 1.0
    field_amp: float = 1.0
    oracle: bool = False
    out: str | None = None

    def __post_init__(self):
        # an empty curve would report a perfect oracle check
        if self.delta_points < 1:
            raise ConfigError(f"delta_points must be >= 1, got {self.delta_points}")


@dataclass
class BellConfig:
    model: Literal["four-term", "six-term-spe", "six-term-tls"] = "four-term"
    vis: float | None = None
    m: int | None = None
    bound: Literal["upper", "lower", "both"] = "both"
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

    def __post_init__(self):
        # an empty check would report a perfect agreement
        if self.gm1_deltas < 1:
            raise ConfigError(f"gm1_deltas must be >= 1, got {self.gm1_deltas}")
        for name in ("nbar", "delta1"):
            values = getattr(self, name)
            if not values:
                raise ConfigError(f"{name} must list at least one value")
            # a repeated value would be computed and written once per repeat
            repeated = [v for v, count in collections.Counter(values).items() if count > 1]
            if repeated:
                raise ConfigError(f"{name} repeats {', '.join(map(str, repeated))}")


@dataclass
class SimulateConfig:
    n_frames: int = 10000
    tau_ratio: float = 0.06
    substeps: int = 8
    n_subsources: int = 64
    slits: Literal[1, 2] = 2
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
    chunk: int = 1024
    out: str | None = None

    def __post_init__(self):
        # the SPKL header stores the frame count as u32 and the seed as u64
        if not 1 <= self.n_frames <= 2**32 - 1:
            raise ConfigError(
                f"n_frames must lie in [1, {2**32 - 1}], got {self.n_frames}")
        if not 0 <= self.seed <= 2**64 - 1:
            raise ConfigError(f"seed must lie in [0, {2**64 - 1}], got {self.seed}")
        if self.chunk < 1:
            raise ConfigError(f"chunk must be >= 1, got {self.chunk}")


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
    bound: Literal["upper", "lower"] = "upper"
    angles: list[float] | None = None
    out: str | None = None
