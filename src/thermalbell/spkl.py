"""SPKL binary frame-stack format.

Layout (all little-endian):
    magic   4 bytes  b"SPKL"
    version u32      (= 1)
    n_frames u32
    height  u32
    width   u32
    tau_ratio f64
    seed    u64
    data    n_frames * height * width float32, row-major, frame-major

A JSON sidecar at ``<path>.meta.json`` carries everything the header cannot
(geometry, model, substeps, run provenance).  The .spkl payload is
deterministic under a fixed config and seed; timestamps live only in the
sidecar.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:
    from .speckle import FrameSet

MAGIC = b"SPKL"
VERSION = 1
_HEADER = struct.Struct("<4sIIIIdQ")


class SpklFormatError(OSError):
    """File is not a readable SPKL stack."""


@dataclass(frozen=True)
class SpklHeader:
    n_frames: int
    height: int
    width: int
    tau_ratio: float
    seed: int

    @property
    def frame_bytes(self) -> int:
        return self.height * self.width * 4


def _pack_header(header: SpklHeader) -> bytes:
    return _HEADER.pack(MAGIC, VERSION, header.n_frames, header.height,
                        header.width, header.tau_ratio, header.seed)


def read_header(path: str | Path) -> SpklHeader:
    """The header of an SPKL file, after checking that the payload size is
    the one the header implies."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        size = os.fstat(fh.fileno()).st_size
    if len(raw) < _HEADER.size:
        raise SpklFormatError(f"{path}: file shorter than the SPKL header")
    magic, version, n_frames, height, width, tau_ratio, seed = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise SpklFormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise SpklFormatError(f"{path}: unsupported SPKL version {version}")
    header = SpklHeader(n_frames, height, width, tau_ratio, seed)
    expected = n_frames * header.frame_bytes
    if size - _HEADER.size != expected:
        raise SpklFormatError(
            f"{path}: payload is {size - _HEADER.size} bytes, header implies {expected}")
    return header


class SpklWriter:
    """Streaming writer; frame count is fixed up front and enforced on close.

    Frames go to a temporary file beside ``path``, which takes its place only
    on a clean close.  On an error, or a frame count short of the header's,
    the temporary file is removed, so a failed run leaves no partial stack.
    """

    def __init__(self, path: str | Path, n_frames: int, height: int, width: int,
                 tau_ratio: float, seed: int):
        self.path = Path(path)
        self.header = SpklHeader(n_frames, height, width, tau_ratio, seed)
        header = _pack_header(self.header)
        self._tmp = self.path.with_name(f".{self.path.name}.{os.getpid()}.tmp")
        self._fh = open(self._tmp, "wb")
        self._written = 0
        try:
            self._fh.write(header)
        except BaseException:
            self.abort()
            raise

    def write(self, frames: np.ndarray) -> None:
        frames = np.asarray(frames)
        if frames.ndim != 3 or frames.shape[1:] != (self.header.height, self.header.width):
            raise ValueError(f"chunk shape {frames.shape} does not match header "
                             f"(h={self.header.height}, w={self.header.width})")
        self._fh.write(np.ascontiguousarray(frames, dtype="<f4").data)
        self._written += frames.shape[0]

    def close(self) -> None:
        try:
            self._fh.close()
            if self._written != self.header.n_frames:
                raise SpklFormatError(
                    f"{self.path}: wrote {self._written} frames, header promised "
                    f"{self.header.n_frames}")
        except BaseException:
            self._tmp.unlink(missing_ok=True)
            raise
        os.replace(self._tmp, self.path)

    def abort(self) -> None:
        """Close and discard everything written."""
        self._fh.close()
        self._tmp.unlink(missing_ok=True)

    def __enter__(self) -> "SpklWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def write_spkl(path: str | Path, frames: FrameSet) -> None:
    n, h, w = frames.pixels.shape
    with SpklWriter(path, n, h, w, frames.tau_ratio, frames.seed) as writer:
        writer.write(frames.pixels)


def read_spkl(path: str | Path) -> tuple[SpklHeader, np.ndarray]:
    header = read_header(path)
    data = np.fromfile(path, dtype="<f4", offset=_HEADER.size)
    return header, data.reshape(header.n_frames, header.height, header.width)


def iter_spkl(path: str | Path, chunk: int = 4096) -> Iterator[np.ndarray]:
    """Yield frame chunks [B, height, width] sequentially from disk."""
    header = read_header(path)
    with open(path, "rb") as fh:
        fh.seek(_HEADER.size)
        remaining = header.n_frames
        while remaining > 0:
            batch = min(chunk, remaining)
            raw = fh.read(batch * header.frame_bytes)
            if len(raw) != batch * header.frame_bytes:
                raise SpklFormatError(f"{path}: truncated frame payload")
            yield np.frombuffer(raw, dtype="<f4").reshape(
                batch, header.height, header.width)
            remaining -= batch


def sidecar_path(path: str | Path) -> Path:
    return Path(str(path) + ".meta.json")


def write_sidecar(path: str | Path, payload: dict) -> None:
    sidecar_path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_sidecar(path: str | Path) -> dict:
    return json.loads(sidecar_path(path).read_text())


def load_frameset(path: str | Path) -> FrameSet:
    """Read an SPKL stack plus its sidecar back into a FrameSet.

    Geometry and generation details come from the sidecar when present;
    otherwise they are left unset.
    """
    # imported here: commands that only write sidecars never load the
    # frame generator
    from .speckle import FrameSet, Geometry

    header, pixels = read_spkl(path)
    geometry = None
    substeps = 0
    n_subsources = 0
    try:
        meta = read_sidecar(path)
    except FileNotFoundError:
        meta = {}
    if "geometry" in meta:
        geometry = Geometry.from_dict(meta["geometry"])
    substeps = int(meta.get("substeps", 0))
    n_subsources = int(meta.get("n_subsources", 0))
    return FrameSet(pixels=pixels, geometry=geometry, seed=header.seed,
                    tau_ratio=header.tau_ratio, substeps=substeps,
                    n_subsources=n_subsources)
