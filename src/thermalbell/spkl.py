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

``AtomicFile`` is the one writer of the package: stacks, sidecars and the
commands' text outputs all land whole or not at all.  ``SpklReader`` is the
one reader of stacks: it checks the header and reads frames through the
same descriptor.  Only the frame reads and writes import numpy, so writing
a command's texts and sidecar does not load it.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ConfigError

if TYPE_CHECKING:
    import numpy as np

    from .speckle import FrameSet, Geometry

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


class SpklReader:
    """An SPKL file open for range reads through one descriptor.

    The header is checked once, at open: the payload size must be the one
    it implies.  ``read`` takes frames with positional reads, so threads may
    read ranges at once, and every range comes from the file that was
    opened, even if another one replaces it at its path.  Close the reader,
    or use it as a context manager.
    """

    def __init__(self, path: str | Path):
        self.path = path
        self._fd = os.open(path, os.O_RDONLY)
        try:
            self.header = self._check_header()
        except BaseException:
            os.close(self._fd)
            raise

    def _check_header(self) -> SpklHeader:
        raw = os.pread(self._fd, _HEADER.size, 0)
        if len(raw) < _HEADER.size:
            raise SpklFormatError(f"{self.path}: file shorter than the SPKL header")
        magic, version, n_frames, height, width, tau_ratio, seed = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise SpklFormatError(f"{self.path}: bad magic {magic!r}")
        if version != VERSION:
            raise SpklFormatError(f"{self.path}: unsupported SPKL version {version}")
        header = SpklHeader(n_frames, height, width, tau_ratio, seed)
        expected = n_frames * header.frame_bytes
        size = os.fstat(self._fd).st_size
        if size - _HEADER.size != expected:
            raise SpklFormatError(
                f"{self.path}: payload is {size - _HEADER.size} bytes, header implies {expected}")
        return header

    def read(self, start: int, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """Frames ``start`` .. ``start + count - 1`` [count, height, width],
        read into ``out`` (a contiguous float32 array of that shape) when
        given."""
        import numpy as np

        header = self.header
        if start < 0 or count < 0 or start + count > header.n_frames:
            raise ValueError(f"frames {start}..{start + count - 1} outside the stack's "
                             f"{header.n_frames}")
        shape = (count, header.height, header.width)
        if out is None:
            frames = np.empty(shape, dtype="<f4")
        elif out.shape != shape or out.dtype != np.dtype("<f4") or not out.flags.c_contiguous:
            raise ValueError(f"out must be a contiguous float32 array of shape {shape}")
        else:
            frames = out
        view = frames.reshape(-1).view(np.uint8)
        offset = _HEADER.size + start * header.frame_bytes
        done = 0
        while done < len(view):
            got = os.preadv(self._fd, [view[done:]], offset + done)
            if got == 0:
                raise SpklFormatError(f"{self.path}: truncated frame payload")
            done += got
        return frames

    def close(self) -> None:
        os.close(self._fd)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def read_header(path: str | Path) -> SpklHeader:
    """The header of an SPKL file, after checking that the payload size is
    the one the header implies."""
    with SpklReader(path) as reader:
        return reader.header


class AtomicFile:
    """A binary file that appears at ``path`` whole or not at all.

    Bytes go to a hidden temporary file beside ``path``, which takes its
    place only on a clean close.  On any error, in ``_before_replace`` or
    the rename too, the temporary file is removed.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._tmp = self.path.with_name(f".{self.path.name}.{os.getpid()}.tmp")
        self._fh = open(self._tmp, "wb")

    def write(self, data) -> None:
        self._fh.write(data)

    def _before_replace(self) -> None:
        """Last step before the rename; raising here publishes nothing."""

    def close(self) -> None:
        try:
            self._fh.close()
            self._before_replace()
            os.replace(self._tmp, self.path)
        except BaseException:
            self.abort()
            raise

    def abort(self) -> None:
        """Close and discard everything written."""
        self._fh.close()
        self._tmp.unlink(missing_ok=True)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


class SpklWriter(AtomicFile):
    """Streaming writer; frame count is fixed up front and enforced on close.

    A stack short of its header's frame count is never published.  Publishing
    a stack first removes the sidecar of the stack it replaces, which may
    describe another geometry.
    """

    def __init__(self, path: str | Path, n_frames: int, height: int, width: int,
                 tau_ratio: float, seed: int):
        self.header = SpklHeader(n_frames, height, width, tau_ratio, seed)
        # packed before the file exists: a field out of range leaves none
        header = _HEADER.pack(MAGIC, VERSION, n_frames, height, width, tau_ratio, seed)
        super().__init__(path)
        self._written = 0
        try:
            super().write(header)
        except BaseException:
            self.abort()
            raise

    def write(self, frames: np.ndarray) -> None:
        import numpy as np

        frames = np.asarray(frames)
        if frames.ndim != 3 or frames.shape[1:] != (self.header.height, self.header.width):
            raise ValueError(f"chunk shape {frames.shape} does not match header "
                             f"(h={self.header.height}, w={self.header.width})")
        super().write(np.ascontiguousarray(frames, dtype="<f4").data)
        self._written += frames.shape[0]

    def _before_replace(self) -> None:
        if self._written != self.header.n_frames:
            raise SpklFormatError(f"{self.path}: wrote {self._written} frames, header "
                                  f"promised {self.header.n_frames}")
        sidecar_path(self.path).unlink(missing_ok=True)


def write_spkl(path: str | Path, frames: FrameSet) -> None:
    n, h, w = frames.pixels.shape
    with SpklWriter(path, n, h, w, frames.tau_ratio, frames.seed) as writer:
        writer.write(frames.pixels)


def read_spkl(path: str | Path) -> tuple[SpklHeader, np.ndarray]:
    with SpklReader(path) as reader:
        return reader.header, reader.read(0, reader.header.n_frames)


def sidecar_path(path: str | Path) -> Path:
    return Path(str(path) + ".meta.json")


def write_texts(files: dict) -> None:
    """Write each text of ``files`` {path: text} whole or not at all.

    Every temporary file is written before any is renamed, so a failed write
    publishes none; the renames follow the order of ``files``.
    """
    pending = []
    try:
        for path, text in files.items():
            pending.append(AtomicFile(path))
            pending[-1].write(text.encode())
        while pending:
            pending.pop(0).close()
    finally:
        for fh in pending:
            fh.abort()


def write_text(path: str | Path, text: str) -> None:
    write_texts({path: text})


def write_sidecar(path: str | Path, payload: dict, outputs: dict | None = None) -> None:
    """Write the sidecar of ``path``; the texts of ``outputs`` {path: text}
    are written with it as one ``write_texts`` set, the sidecar renamed last."""
    write_texts({**(outputs or {}),
                 sidecar_path(path): json.dumps(payload, indent=2, sort_keys=True) + "\n"})


def read_sidecar(path: str | Path) -> dict:
    return json.loads(sidecar_path(path).read_text())


def read_geometry(path: str | Path, header: SpklHeader) -> tuple[Geometry, dict]:
    """The geometry the sidecar of the stack at ``path`` records, and the
    sidecar.  A sidecar that is missing, is no JSON object, records no whole
    and well-typed geometry, or describes a grid other than ``header``'s is
    refused with ConfigError."""
    # imported here: commands that only write sidecars never load the
    # frame generator
    from .speckle import Geometry

    sidecar = sidecar_path(path)
    try:
        meta = read_sidecar(path)
    except FileNotFoundError:
        raise ConfigError(f"no geometry available for {path}; sidecar "
                          f"{sidecar} is missing") from None
    except ValueError as exc:
        raise ConfigError(f"sidecar {sidecar} is not valid JSON: {exc}") from exc
    if not isinstance(meta, dict) or "geometry" not in meta:
        raise ConfigError(f"sidecar {sidecar} records no geometry for {path}")
    try:
        geom = Geometry.from_dict(meta["geometry"])
    except ValueError as exc:
        raise ConfigError(f"sidecar {sidecar}: {exc}") from exc
    if (geom.width, geom.height) != (header.width, header.height):
        raise ConfigError(f"sidecar {sidecar} describes a {geom.width} "
                          f"x {geom.height} grid, but {path} holds {header.width} x "
                          f"{header.height} frames")
    return geom, meta


def load_frameset(path: str | Path) -> FrameSet:
    """Read an SPKL stack plus its sidecar back into a FrameSet.

    The sidecar is read by ``read_geometry``'s rules, before the frames;
    with no sidecar the geometry and generation details are left unset.
    """
    from .speckle import FrameSet

    with SpklReader(path) as reader:
        header = reader.header
        geometry, meta = read_geometry(path, header) if sidecar_path(path).exists() \
            else (None, {})
        pixels = reader.read(0, header.n_frames)
    substeps = int(meta.get("substeps", 0))
    n_subsources = int(meta.get("n_subsources", 0))
    return FrameSet(pixels=pixels, geometry=geometry, seed=header.seed,
                    tau_ratio=header.tau_ratio, substeps=substeps,
                    n_subsources=n_subsources)
