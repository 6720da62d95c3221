"""Synthetic pseudothermal double-slit experiment.

Two slit sources, each modeled as a row of point sub-sources with i.i.d.
complex Gaussian amplitudes evolving in time as a stationary Gauss-Markov
process (autocorrelation exp(-dt/tau_c)).  A camera frame is the average of
the far-field intensity over ``substeps`` time steps spanning the integration
time, so the ratio tau_i/tau_c controls how much the speckle washes out
within one frame.  Frames are statistically independent realizations.

All rows of a frame carry the same field realization: the slit pair is taken
as fully coherent along y over the few-pixel window the correlator uses, so
the y-axis only provides the distinct detector pixels required by the
m-photon correlation scheme.

Reproducibility: every frame draws from its own counter-based Philox stream
keyed by (seed, frame index), so the output depends neither on the chunk size
nor on how many threads make the chunks.  Each chunk keeps one Philox
generator: before each frame it is rekeyed to (seed, frame index) with its
counter and buffer cleared, the state a freshly built
``Philox(key=[seed, frame])`` starts in, so the draws are those of a new
generator per frame without the cost of building one.

Parallelism: chunks are made on a pool of worker threads, one per CPU in the
process's affinity mask (no more than there are chunks), and handed out in
frame order.  The draws and the matrix products release the GIL.  While the
pool runs, OpenBLAS is pinned to one thread (``blas.one_thread``), since the
workers' products would otherwise contend with OpenBLAS's own threads; the
pin changes the speed, never the bytes.  No process is started.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Iterator, get_type_hints

import numpy as np

from . import blas
from .errors import SamplingGuardError
from .sources import SourceKind, SourceModel

MIN_FRINGE_PIXELS = 16.0

# Philox counter blocks: frame streams for field generation start at 0,
# photonization uses a disjoint block so the same user seed never reuses a
# stream.
_PHOTONIZE_COUNTER_BASE = 1 << 63


@dataclass(frozen=True)
class Geometry:
    """Double-slit geometry and camera grid.

    The phase map uses the small-angle form delta(x) = k * d * x / z for the
    pixel-center abscissa x, with x = 0 at the grid center.
    """

    wavelength: float = 532e-9
    slit_separation: float = 200e-6
    slit_width: float = 25e-6
    propagation: float = 0.3
    pixel_pitch: float = 5.5e-6
    width: int = 512
    height: int = 8

    def __post_init__(self):
        for name in ("wavelength", "slit_separation", "slit_width",
                     "propagation", "pixel_pitch"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.width < 2 or self.height < 1:
            raise ValueError("width must be >= 2 and height >= 1")

    @property
    def fringe_period(self) -> float:
        """Fringe period lambda * z / d in meters."""
        return self.wavelength * self.propagation / self.slit_separation

    @property
    def fringe_period_px(self) -> float:
        return self.fringe_period / self.pixel_pitch

    def pixel_positions(self) -> np.ndarray:
        """Pixel-center abscissae (meters), centered on the grid."""
        cols = np.arange(self.width, dtype=float)
        return (cols - (self.width - 1) / 2.0) * self.pixel_pitch

    def phase_map(self) -> np.ndarray:
        """Relative two-slit phase delta(x) per pixel column (radians)."""
        k = 2.0 * math.pi / self.wavelength
        return k * self.slit_separation * self.pixel_positions() / self.propagation

    def check_sampling(self) -> None:
        if self.fringe_period_px < MIN_FRINGE_PIXELS:
            raise SamplingGuardError(
                f"fringe period spans {self.fringe_period_px:.2f} px, "
                f"below the {MIN_FRINGE_PIXELS:.0f} px sampling guard")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Geometry":
        """The geometry ``to_dict`` gave: every field present, finite floats
        and integers as such, no other key.  Nothing is filled from the
        defaults, which need not be what made the frames."""
        if not isinstance(data, dict):
            raise ValueError(f"geometry must be an object of fields, got {data!r}")
        hints = get_type_hints(cls)
        missing = sorted(hints.keys() - data.keys())
        unknown = sorted(data.keys() - hints.keys())
        if missing:
            raise ValueError(f"geometry fields {missing} are missing")
        if unknown:
            raise ValueError(f"unknown geometry fields {unknown}")
        for name, kind in hints.items():
            value = data[name]
            allowed = (int, float) if kind is float else int
            if isinstance(value, bool) or not isinstance(value, allowed) \
                    or (isinstance(value, float) and not math.isfinite(value)):
                noun = "a finite number" if kind is float else "an integer"
                raise ValueError(f"geometry field '{name}': expected {noun}, got {value!r}")
        return cls(**data)


@dataclass
class FrameSet:
    """Stack of synthetic camera frames plus the metadata that generated it."""

    pixels: np.ndarray                 # [n_frames, height, width]
    geometry: Geometry | None
    seed: int
    tau_ratio: float
    substeps: int
    n_subsources: int

    @property
    def n_frames(self) -> int:
        return self.pixels.shape[0]

    def scaled(self, factor: float) -> "FrameSet":
        """Same frames with every intensity multiplied by ``factor``."""
        return FrameSet(self.pixels * factor, self.geometry, self.seed,
                        self.tau_ratio, self.substeps, self.n_subsources)


def subsource_positions(geom: Geometry, n_subsources: int, slits: int = 2) -> np.ndarray:
    """Transverse positions of all point sub-sources (meters).

    Sub-sources are equally spaced across each slit width; slit centers sit at
    +-d/2 (or at 0 for a single slit).
    """
    if n_subsources < 1:
        raise ValueError(f"n_subsources must be >= 1, got {n_subsources}")
    if slits not in (1, 2):
        raise ValueError(f"slits must be 1 or 2, got {slits}")
    if n_subsources == 1:
        offsets = np.zeros(1)
    else:
        offsets = np.linspace(-geom.slit_width / 2.0, geom.slit_width / 2.0, n_subsources)
    if slits == 1:
        centers = np.array([0.0])
    else:
        centers = np.array([-geom.slit_separation / 2.0, geom.slit_separation / 2.0])
    return (centers[:, None] + offsets[None, :]).ravel()


def _frame_rng(seed: int, counter: int,
               rng: np.random.Generator | None = None) -> np.random.Generator:
    """Generator at the start of the Philox stream keyed by (seed, counter).

    Given ``rng`` (a Philox generator), rekeys and rewinds it in place instead
    of building a new one: the draws are the same, the reset is ~15x cheaper.
    """
    if rng is None:
        rng = np.random.Generator(np.random.Philox(key=0))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed, counter)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


def _validate_seed(seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    return seed


def _worker_count(n_chunks: int) -> int:
    """Worker threads for ``n_chunks`` chunks, made here or summed into
    block sums by ``correlate.collect_cells``: one per CPU this process may
    run on, and no more than there are chunks."""
    return min(len(os.sched_getaffinity(0)), n_chunks)


def _intensity_chunk(plan: tuple, start: int, batch: int) -> np.ndarray:
    """Intensities [batch, width] (float32) of frames start .. start+batch-1.

    ``plan`` is (seed, substeps, phases [n_src, width], amp_sigma, rho,
    innov), shared by every chunk of a run.  The chunk uses only its own
    generator and buffers, so chunks can run on any thread.
    """
    seed, substeps, phases, amp_sigma, rho, innov = plan
    n_src, width = phases.shape
    # Each frame's normals land as (re, im) pairs, which is the complex128
    # layout, so the complex draws are a view.
    z = np.empty((batch, substeps, n_src, 2))
    draws = z.view(complex)[..., 0]                      # [batch, substeps, n_src]
    rng = _frame_rng(seed, start)
    for i in range(batch):
        _frame_rng(seed, start + i, rng).standard_normal(out=z[i])
    z *= amp_sigma / math.sqrt(2.0)
    cur = draws[:, 0].copy()
    tmp = np.empty_like(cur)
    field = np.empty((batch, width), dtype=complex)
    sq = np.empty((batch, width, 2))
    power = np.empty((batch, width))
    intensity = np.zeros_like(power)
    fv = field.view(float).reshape(sq.shape)
    for step in range(substeps):
        if step:
            cur *= rho
            np.multiply(draws[:, step], innov, out=tmp)
            cur += tmp
        np.matmul(cur, phases, out=field)
        np.multiply(fv, fv, out=sq)                 # |field|^2 = re^2 + im^2
        np.add(sq[..., 0], sq[..., 1], out=power)
        intensity += power
    intensity /= substeps
    return intensity.astype(np.float32)


def iter_intensity_chunks(geom: Geometry, model: SourceModel, n_frames: int,
                          tau_ratio: float, substeps: int = 8,
                          n_subsources: int = 64, seed: int = 0,
                          slits: int = 2,
                          chunk: int = 1024) -> Iterator[np.ndarray]:
    """Yield frame-intensity chunks of shape [B, width] (float32), in frame
    order.

    One row per frame; callers replicate along y as needed.  Output is
    independent of ``chunk`` and of the number of worker threads.  The
    workers are joined before the generator finishes, however it finishes:
    exhausted, closed early, or left by an exception.
    """
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")
    if tau_ratio < 0 or not math.isfinite(tau_ratio):
        raise ValueError(f"tau_ratio must be finite and >= 0, got {tau_ratio}")
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    if model.kind is not SourceKind.TLS:
        raise ValueError("frame synthesis models thermal slit pairs only; "
                         f"got source kind {model.kind.value}")
    seed = _validate_seed(seed)
    geom.check_sampling()
    positions = subsource_positions(geom, n_subsources, slits)
    k = 2.0 * math.pi / geom.wavelength
    # far-field propagation phases, [n_src, width]
    phases = np.exp(1j * k * np.outer(positions, geom.pixel_positions()) / geom.propagation)
    amp_sigma = math.sqrt(model.field_amp**2 * model.mean_photons / n_subsources)
    rho = math.exp(-tau_ratio / substeps)
    innov = math.sqrt(max(0.0, 1.0 - rho * rho))
    plan = (seed, substeps, phases, amp_sigma, rho, innov)

    starts = range(0, n_frames, chunk)
    workers = _worker_count(len(starts))
    # at most workers + 1 chunks exist at once: those being made, and the
    # one the caller holds
    pending = deque()
    with blas.one_thread():
        pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="speckle")
        try:
            for start in starts:
                pending.append(pool.submit(_intensity_chunk, plan, start,
                                           min(chunk, n_frames - start)))
                if len(pending) > workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            # joins the workers once the chunks already running are done
            pool.shutdown(cancel_futures=True)


def generate_frames(geom: Geometry, model: SourceModel, n_frames: int,
                    tau_ratio: float, substeps: int = 8, n_subsources: int = 64,
                    seed: int = 0, slits: int = 2, chunk: int = 1024) -> FrameSet:
    """Generate a full in-memory frame stack [n_frames, height, width]."""
    out = np.empty((n_frames, geom.height, geom.width), dtype=np.float32)
    start = 0
    for block in iter_intensity_chunks(geom, model, n_frames, tau_ratio, substeps,
                                       n_subsources, seed, slits, chunk):
        out[start:start + block.shape[0]] = block[:, None, :]
        start += block.shape[0]
    return FrameSet(pixels=out, geometry=geom, seed=seed, tau_ratio=tau_ratio,
                    substeps=substeps, n_subsources=n_subsources)


def photonize(frames: FrameSet, gain: float, seed: int = 0) -> FrameSet:
    """Discrete-photon frames: per pixel, counts ~ Poisson(gain * intensity).

    Deterministic under ``seed``; uses a counter block disjoint from frame
    generation so identical seeds stay independent.
    """
    if gain <= 0:
        raise ValueError(f"gain must be > 0, got {gain}")
    seed = _validate_seed(seed)
    counts = np.empty(frames.pixels.shape, dtype=np.int32)
    rates = gain * np.asarray(frames.pixels, dtype=float)
    rng = _frame_rng(seed, _PHOTONIZE_COUNTER_BASE)
    for f in range(frames.n_frames):
        counts[f] = _frame_rng(seed, _PHOTONIZE_COUNTER_BASE + f, rng).poisson(rates[f])
    return FrameSet(pixels=counts, geometry=frames.geometry, seed=seed,
                    tau_ratio=frames.tau_ratio, substeps=frames.substeps,
                    n_subsources=frames.n_subsources)
