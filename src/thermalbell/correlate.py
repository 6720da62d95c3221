"""Estimators of normalized higher-order correlations from frame stacks.

The central quantity is
    ghat(x2) = < prod_i I(x1, y_i) * I(x2, y2) >_frames
               / ( prod_i <I(x1, y_i)> * <I(x2, y2)> ),
the (m+1)-th order correlation normalized by first-order averages, estimated
in a single pass with compensated accumulation.  Error bars come from a block
bootstrap over frames (frames may carry residual temporal correlation).
Visibility is extracted by weighted least squares against
A * (1 + V cos(delta(x2) - phi)) with the fringe period fixed by geometry.

``bell_from_frames`` measures the four joint quantities of the post-selected
(m+1)-photon scheme at pixels realizing the Bell cosine arguments, normalizes
them per setting (four-term normalization), and evaluates the CH74 statistic.
Because the inequality holds for arbitrary angles, the statistic is evaluated
at the phases the pixel grid actually achieves; violation is asserted only
when the bound is exceeded by at least two standard errors.

One pass over the stack.  The estimators read pixels through a
``CellTable``: the per-frame series of the (column, row) cells they need,
gathered by ``collect_cells`` in one streamed pass and stored column-major,
so a cell's series is a contiguous view.  ``gm1_cells`` and ``bell_cells``
name the cells of one estimate; a caller that plans the union of several
estimates (``thermalbell correlate`` does, for every m and every Bell
realization) reads the stack once and hands the same table to each.  Block
sums of a cell's series are computed once per table and shared.

Matrix bootstrap.  Each replicate draws ``rng.integers(0, nb, nb)`` block
indices, one draw per replicate in a fixed order, as a per-replicate loop
would.  The draws of a group of replicates become rows of block counts W,
and the group's resampled sums are the products ``W @ block_sums`` and
``W @ block_lengths``.  Only the summation order differs from resampling
block by block, so bootstrap errors move in the last digits; point
estimates do not use the bootstrap and are unchanged.  BLAS picks that
order, and its rounding depends on the thread count and on each column's
position in the block matrix.  The column order is fixed ([x1 | num | x2]
for ``estimate_gm1``, [s | t | num] per Bell realization), and the products
run on one OpenBLAS thread (``blas.one_thread``), so the bootstrap errors
do not depend on the thread count either.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .bell import (BellModel, BellReport, LOWER_BOUND, UPPER_BOUND, AngleSet,
                   ch74, detector_phases)
from .errors import (InsufficientFramesError, PeriodCoverageError,
                     SamplingGuardError)
from .speckle import FrameSet, Geometry
from . import blas, spkl

MIN_FRAMES = 100
# A block bootstrap over fewer blocks has next to no spread to resample (one
# block gives a zero error bar); 7 is 400 frames at the default block length.
MIN_BLOCKS = 7
DEFAULT_BLOCK_LEN = 64
DEFAULT_N_BOOT = 200
# Replicates per count matrix W, which holds BOOT_GROUP * n_blocks floats.
BOOT_GROUP = 32


@dataclass
class CorrelationCurve:
    """Estimated normalized correlation versus the scanned detector column."""

    m: int
    x2_positions: np.ndarray      # pixel columns
    values: np.ndarray            # ghat estimates, >= 0
    stderr: np.ndarray            # block-bootstrap standard errors
    n_frames_used: int


@dataclass
class VisibilityEstimate:
    """Fringe visibility from a correlation curve fit.

    ``fit_residual`` is the RMS fit residual relative to the fitted midline.
    The estimate and its standard error may straddle a Bell threshold; callers
    must propagate the uncertainty rather than compare point values.
    """

    value: float
    stderr: float
    fit_residual: float


@dataclass(kw_only=True)
class FrameBellReport(BellReport):
    """CH74 evaluation from measured frames.

    ``statistic`` averages the estimates over the pixel realizations used;
    flags assert violation only beyond two standard errors.  ``achieved``
    records, per realization, the cosine arguments the pixel grid realized.
    """

    stderr: float
    n_frames: int
    n_realizations: int
    m: int
    achieved: list[dict] = field(default_factory=list)


Cell = tuple[int, int]        # (column, row)


def _stack(source: FrameSet | str | Path) -> tuple[tuple[int, int, int],
                                                   Iterable[np.ndarray]]:
    """Shape [N, height, width] of a frame stack and its frames in chunks;
    an SPKL file's chunks are read only when iterated."""
    if isinstance(source, FrameSet):
        return source.pixels.shape, (source.pixels,)
    header = spkl.read_header(source)
    return (header.n_frames, header.height, header.width), spkl.iter_spkl(source)


def collect_cells(source: FrameSet | str | Path,
                  cells: Sequence[Cell]) -> np.ndarray:
    """Per-frame values of the listed (column, row) pixels, shape [N, n_cells].

    Single sequential pass over the source; float64 output, stored
    column-major so that each cell's series ``out[:, j]`` is contiguous.
    """
    (n_frames, height, width), chunks = _stack(source)
    cols = np.array([c for c, _ in cells], dtype=int)
    rows = np.array([r for _, r in cells], dtype=int)
    if np.any((cols < 0) | (cols >= width)):
        raise ValueError(f"column index out of range [0, {width})")
    if np.any((rows < 0) | (rows >= height)):
        raise ValueError(f"row index out of range [0, {height})")
    flat = rows * width + cols
    out = np.empty((len(cells), n_frames), dtype=np.float64)
    start = 0
    for block in chunks:
        frames = block.reshape(block.shape[0], height * width)
        out[:, start:start + block.shape[0]] = np.take(frames, flat, axis=1).T
        start += block.shape[0]
    return out.T


class CellTable:
    """Per-frame series of pixel cells, read in one pass over a stack.

    ``series`` returns a view of the stored column.  Block sums are computed
    once per cell, block length and shuffle flag, and reused by every
    estimate that reads the table.
    """

    def __init__(self, source: FrameSet | str | Path, cells: Sequence[Cell]):
        (self.n_frames, self.height, self.width), _ = _stack(source)
        cells = list(dict.fromkeys(cells))
        self._index = {cell: j for j, cell in enumerate(cells)}
        self._values = collect_cells(source, cells)
        self._block_sums: dict[tuple[Cell, int, bool], np.ndarray] = {}

    @property
    def n_cells(self) -> int:
        return len(self._index)

    def series(self, cell: Cell, shuffle: bool = False) -> np.ndarray:
        """Values of ``cell`` per frame; ``shuffle`` moves frame i+1 to i
        (cyclically)."""
        try:
            values = self._values[:, self._index[cell]]
        except KeyError:
            raise ValueError(f"cell {cell} is not in the table") from None
        return np.roll(values, -1) if shuffle else values

    def block_sums(self, cells: Sequence[Cell], block_len: int,
                   shuffle: bool = False) -> np.ndarray:
        """Block sums of the cells' series, shape [n_blocks, len(cells)]."""
        columns = []
        for cell in cells:
            key = (cell, block_len, shuffle)
            if key not in self._block_sums:
                self._block_sums[key] = _block_sums(self.series(cell, shuffle),
                                                    block_len)
            columns.append(self._block_sums[key])
        return np.column_stack(columns)


# An SPKL file is read through a CellTable, which ``collect_cells`` fills.
FrameSource = FrameSet | CellTable


def _cell_table(source: FrameSource, cells: Sequence[Cell]) -> CellTable:
    """The table to read: ``source`` itself, or one pass collecting ``cells``."""
    if isinstance(source, CellTable):
        return source
    return CellTable(source, cells)


def _row_products(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Per-frame products of the series in ``columns``, factors multiplied in
    ascending order.

    Sorting makes the result invariant under permutation of the chosen rows;
    a compare-exchange network sorts every frame at once, where a per-frame
    sort call would dominate the estimators.  Frames whose direct product
    over/underflows despite all-positive factors are recomputed in the log
    domain.
    """
    v = [np.asarray(c, dtype=np.float64) for c in columns]
    for end in range(len(v) - 1, 0, -1):
        for i in range(end):
            v[i], v[i + 1] = np.minimum(v[i], v[i + 1]), np.maximum(v[i], v[i + 1])
    p = np.array(v[0], dtype=np.float64)
    for factor in v[1:]:
        p *= factor
    bad = ~np.isfinite(p)
    zero = p == 0
    if np.any(zero):
        bad |= zero & np.logical_and.reduce([factor > 0 for factor in v])
    if np.any(bad):
        p[bad] = np.exp(np.sum(np.log(np.stack(v, axis=-1)[bad]), axis=-1))
    return p


def _ghat(x1: np.ndarray, num: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """ghat from frame means, for any leading shape: the numerators ``num``
    [..., G, S] over the sorted product of each group's x1 means ``x1``
    [..., G, m] times the x2 means ``x2`` [..., S].  Returns [..., G, S]."""
    x1_prod = _row_products([x1[..., i] for i in range(x1.shape[-1])])
    return num / (x1_prod[..., None] * x2[..., None, :])


def _block_sums(arr: np.ndarray, block_len: int) -> np.ndarray:
    starts = np.arange(0, arr.shape[0], block_len)
    return np.add.reduceat(arr, starts, axis=0)


def _blocks(table: CellTable, x1_groups: Sequence[Sequence[Cell]],
            x2_cells: Sequence[Cell], block_len: int,
            shuffle: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block sums of ghat's series: the x1 cells of all groups, the
    numerators (each group's sorted product times each x2 series,
    group-major), and the x2 cells."""
    prods = [_row_products([table.series(c) for c in group]) for group in x1_groups]
    num = np.column_stack([_block_sums(p * table.series(c, shuffle), block_len)
                           for p in prods for c in x2_cells])
    return (table.block_sums([c for group in x1_groups for c in group], block_len),
            num, table.block_sums(x2_cells, block_len, shuffle))


def _check_sampling(n_frames: int, block_len: int, n_boot: int) -> None:
    if n_frames < MIN_FRAMES:
        raise InsufficientFramesError(
            f"{n_frames} frames; at least {MIN_FRAMES} required")
    if block_len < 1:
        raise ValueError(f"block length must be >= 1, got {block_len}")
    n_blocks = -(-n_frames // block_len)
    if n_blocks < MIN_BLOCKS:
        raise InsufficientFramesError(
            f"{n_frames} frames make {n_blocks} bootstrap blocks of {block_len}; "
            f"at least {MIN_BLOCKS} required (use a shorter block length)")
    if n_boot < 2:
        raise ValueError(f"need at least 2 bootstrap replicates, got {n_boot}")


def _check_rows(m: int, y1_rows: Iterable[int]) -> list[int]:
    """The x1 rows in ascending order, once checked to be m distinct rows.

    The products do not depend on the order of the rows, and a fixed column
    order keeps the bootstrap sums bit-identical too.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    rows = sorted(y1_rows)
    if len(rows) != m or len(set(rows)) != m:
        raise ValueError(f"y1_rows must be {m} distinct rows, got {rows}")
    return rows


def _resample(blocks: np.ndarray, n_frames: int, block_len: int, n_boot: int,
              seed: tuple[int, int], statistic) -> tuple[np.ndarray, np.ndarray]:
    """Frame means of the block columns, and block-bootstrap replicates of
    ``statistic`` of resampled means.

    ``blocks`` [nb, C] holds sums over blocks of ``block_len`` frames, the
    last block holding the rest of the ``n_frames``.  The means [C] are
    compensated sums over all frames.  Replicate r draws
    ``rng.integers(0, nb, nb)``; each group of BOOT_GROUP draws becomes a
    count matrix W, and ``statistic`` receives the group's means
    ``(W @ blocks) / (W @ lengths)`` [g, C].  Returns the means and the
    stacked replicate values.
    """
    nb = blocks.shape[0]
    mean = np.array([math.fsum(column) for column in blocks.T]) / float(n_frames)
    lengths = np.minimum(block_len, n_frames - block_len * np.arange(nb)).astype(float)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = []
    for start in range(0, n_boot, BOOT_GROUP):
        size = min(BOOT_GROUP, n_boot - start)
        draws = np.stack([rng.integers(0, nb, nb) for _ in range(size)])
        draws += nb * np.arange(size)[:, None]
        weights = np.bincount(draws.ravel(), minlength=size * nb)
        weights = weights.reshape(size, nb).astype(np.float64)
        # one BLAS thread: with thousands of blocks the products' rounding
        # would otherwise depend on the thread count
        with blas.one_thread():
            means = (weights @ blocks) / (weights @ lengths)[:, None]
        out.append(statistic(means))
    return mean, np.concatenate(out)


def gm1_cells(x1: int, y1_rows: Sequence[int], x2_scan: Sequence[int],
              y2: int) -> list[Cell]:
    """Cells ``estimate_gm1`` reads: the x1 pixels on the rows in ascending
    order, then the scan."""
    return [(x1, r) for r in sorted(y1_rows)] + [(c, y2) for c in x2_scan]


def estimate_gm1(source: FrameSource, m: int, x1: int,
                 y1_rows: Sequence[int], x2_scan: Sequence[int], y2: int,
                 *, n_boot: int = DEFAULT_N_BOOT,
                 block_len: int = DEFAULT_BLOCK_LEN, boot_seed: int = 0,
                 shuffle: bool = False) -> CorrelationCurve:
    """Normalized (m+1)-th order correlation over a scan of x2 columns.

    m pixels sit at column x1 on the distinct rows ``y1_rows``; the single
    second-side pixel scans ``x2_scan`` on row ``y2``.  ``shuffle`` pairs the
    x1 product of frame i with the x2 values of frame i+1, destroying genuine
    correlations (control estimator).  ``source`` may be a ``CellTable``
    holding the ``gm1_cells``; otherwise they are collected from it.
    """
    _check_sampling(source.n_frames, block_len, n_boot)
    rows = _check_rows(m, y1_rows)
    x2_scan = list(x2_scan)
    if not x2_scan:
        raise ValueError("x2_scan must be nonempty")
    if y2 in rows and x1 in x2_scan:
        raise ValueError(
            f"x2 scan hits column {x1} on row {y2}, which is already used as an "
            "x1 pixel; choose a different y2 row")

    cells = gm1_cells(x1, rows, x2_scan, y2)
    table = _cell_table(source, cells)
    # block columns [x1 | num | x2]; BLAS rounding depends on column position
    blocks = np.concatenate(_blocks(table, [cells[:m]], cells[m:], block_len, shuffle),
                            axis=1)
    n_scan = len(x2_scan)

    def ghat(mean: np.ndarray) -> np.ndarray:
        return _ghat(mean[..., None, :m], mean[..., None, m:-n_scan],
                     mean[..., -n_scan:])[..., 0, :]

    mean, boot = _resample(blocks, table.n_frames, block_len, n_boot,
                           (boot_seed, 0xB00727), ghat)
    return CorrelationCurve(m=m, x2_positions=np.array(x2_scan, dtype=int),
                            values=ghat(mean), stderr=boot.std(axis=0, ddof=1),
                            n_frames_used=table.n_frames)


def fit_visibility(curve: CorrelationCurve, geom: Geometry) -> VisibilityEstimate:
    """Weighted least-squares visibility of a correlation curve.

    The model A * (1 + V cos(delta - phi)) is linear in
    (A, A V cos phi, A V sin phi); the phase map delta(x2) comes from the
    geometry with the fringe period fixed, so no iterative fitting is needed.
    Requires the scan to span at least one full fringe period.
    """
    delta = geom.phase_map()[curve.x2_positions]
    if delta.max() - delta.min() < 2.0 * math.pi - 1e-9:
        raise PeriodCoverageError(
            f"scan spans {(delta.max() - delta.min()) / (2 * math.pi):.2f} fringe "
            "periods; at least one full period required")
    y = np.asarray(curve.values, dtype=float)
    se = np.asarray(curve.stderr, dtype=float)
    design = np.stack([np.ones_like(delta), np.cos(delta), np.sin(delta)], axis=1)
    if np.all(np.isfinite(se)) and np.all(se > 0):
        w = 1.0 / se**2
    else:
        w = np.ones_like(y)
    sw = np.sqrt(w)
    coef, *_ = np.linalg.lstsq(design * sw[:, None], y * sw, rcond=None)
    c0, c1, c2 = coef
    if c0 <= 0:
        raise PeriodCoverageError(f"degenerate fit: nonpositive midline {c0}")
    gram = design.T @ (design * w[:, None])
    cov = np.linalg.inv(gram)
    r = math.hypot(c1, c2)
    vis = r / c0
    if r > 0:
        grad = np.array([-r / c0**2, c1 / (r * c0), c2 / (r * c0)])
    else:
        grad = np.array([0.0, 1.0 / c0, 1.0 / c0])
    stderr = float(math.sqrt(max(0.0, grad @ cov @ grad)))
    residual = float(np.sqrt(np.mean((y - design @ coef) ** 2)) / c0)
    return VisibilityEstimate(value=float(min(max(vis, 0.0), 1.0)),
                              stderr=stderr, fit_residual=residual)


def _snap_column(phase_map: np.ndarray, target: float) -> tuple[int, float]:
    col = int(np.argmin(np.abs(phase_map - target)))
    return col, float(phase_map[col] - target)


def _partner_column(phase_map: np.ndarray, setting_phase: float) -> tuple[int, float]:
    """Column realizing the pi-shifted partner of a setting, trying both
    directions and keeping the better snap."""
    cand = [_snap_column(phase_map, setting_phase + math.pi),
            _snap_column(phase_map, setting_phase - math.pi)]
    return min(cand, key=lambda ce: abs(ce[1]))


# Per pack: (s setting key, t setting key); packs follow the CH74 joint order
# (d1,d2), (d1,d2'), (d1',d2), (d1',d2').
_PACKS = (("s1", "s2"), ("s1", "s2p"), ("s1p", "s2"), ("s1p", "s2p"))
_PARTNER = {"s1": "p1", "s1p": "p1p", "s2": "p2", "s2p": "p2p"}
_S_KEYS = ("s1", "p1", "s1p", "p1p")
_T_KEYS = ("s2", "p2", "s2p", "p2p")


def _bell_columns(phase_map: np.ndarray, angles: AngleSet, gauge: float,
                  max_snap: float) -> dict[str, int] | None:
    """Pixel columns realizing the four settings plus pi partners at a gauge
    offset, or None when any snap error exceeds ``max_snap``."""
    d1, d1p, d2, d2p = detector_phases(angles)
    targets = {"s1": d1 + gauge, "s1p": d1p + gauge,
               "s2": d2 + gauge, "s2p": d2p + gauge}
    cols: dict[str, int] = {}
    for key, phase in targets.items():
        col, err = _snap_column(phase_map, phase)
        if abs(err) > max_snap:
            return None
        cols[key] = col
        pcol, perr = _partner_column(phase_map, phase_map[col])
        if abs(perr) > max_snap:
            return None
        cols[_PARTNER[key]] = pcol
    return cols


@functools.lru_cache(maxsize=16)
def _bell_realizations(geom: Geometry, angles: AngleSet,
                       n_realizations: int) -> tuple[Mapping[str, int], ...]:
    """Pixel columns of ``n_realizations`` gauges of the angle tuple, spread
    evenly over the gauges the grid can realize.

    Memoized: a ``correlate --bell`` needs them for its cell plan and again
    for the statistic, and each search snaps 512 gauges.
    """
    phase_map = geom.phase_map()
    phase_step = float(np.median(np.abs(np.diff(phase_map))))
    max_snap = 0.75 * phase_step

    gauges = np.linspace(phase_map.min(), phase_map.max(), 512)
    usable = [cols for cols in (_bell_columns(phase_map, angles, g, max_snap)
                                for g in gauges) if cols is not None]
    if len(usable) < n_realizations:
        raise SamplingGuardError(
            f"only {len(usable)} pixel realizations of the angle tuple fit the "
            f"grid; {n_realizations} requested")
    picks = np.linspace(0, len(usable) - 1, n_realizations).round().astype(int)
    return tuple(MappingProxyType(usable[i]) for i in picks)


def bell_cells(geom: Geometry, angles: AngleSet, y1_rows: Sequence[int],
               y2: int, n_realizations: int) -> list[Cell]:
    """Cells ``bell_from_frames`` reads for these arguments: per realization,
    the x1 pixels of each s column on the rows in ascending order (s-major,
    4m cells), then the y2 pixels of the t columns (4 cells)."""
    rows = sorted(y1_rows)
    return [cell for cols in _bell_realizations(geom, angles, n_realizations)
            for cell in [(cols[sk], r) for sk in _S_KEYS for r in rows]
            + [(cols[tk], y2) for tk in _T_KEYS]]


def _ch74_four_term(mean: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """CH74 statistic of frame means, for any leading shape.

    ``mean`` [..., 4m + 20] holds, per estimate, the means of the x1 pixels of
    the four s columns (s1, p1, s1p, p1p; m rows each), of the y2 pixels of
    the four t columns (s2, p2, s2p, p2p), and of the 16 numerators [s, t].
    Returns the statistic [...] and the joint probabilities [..., 2, 2] of
    the packs (s1 | s1p) x (s2 | s2p).
    """
    lead = mean.shape[:-1]
    ghat = _ghat(mean[..., :4 * m].reshape(*lead, 4, m),
                 mean[..., 4 * m + 4:].reshape(*lead, 4, 4), mean[..., 4 * m:4 * m + 4])
    # [s, t] = [2 a + partner, 2 c + partner]: a pack (a, c) holds the setting
    # pair, both partners, and each single partner
    g = ghat.reshape(*lead, 2, 2, 2, 2)
    same, both = g[..., :, 0, :, 0], g[..., :, 1, :, 1]
    t_partner, s_partner = g[..., :, 0, :, 1], g[..., :, 1, :, 0]
    total = same + both + t_partner + s_partner
    probs = same / total
    # P1(d1'): (d1',d2) + (d1',p2);  P1(d2): (d1,d2) + (p1,d2)
    marg_1p = (same[..., 1, 0] + t_partner[..., 1, 0]) / total[..., 1, 0]
    marg_2 = (same[..., 0, 0] + s_partner[..., 0, 0]) / total[..., 0, 0]
    return ch74(probs.reshape(*lead, 4), marg_1p, marg_2), probs


def bell_from_frames(source: FrameSource, m: int, angles: AngleSet,
                     geom: Geometry | None = None, *,
                     y1_rows: Sequence[int] | None = None, y2: int | None = None,
                     n_realizations: int = 1, n_boot: int = DEFAULT_N_BOOT,
                     block_len: int = DEFAULT_BLOCK_LEN, boot_seed: int = 0,
                     shuffle: bool = False) -> FrameBellReport:
    """CH74 statistic measured from frames via the four-term scheme.

    For each pixel realization, the four joint quantities of one cosine
    argument are the correlation estimates at the setting pair and at its
    pi-shifted partners; their sum is the four-term normalization, the joint
    probabilities follow, and the single-detector marginals are estimated from
    the same packs.  Multiple realizations of the same argument tuple (the
    tuple fixes only phase differences, so it can be realized anywhere along
    the fringe) are averaged; the block bootstrap resamples frames through the
    full pipeline, capturing all correlations.  ``source`` may be a
    ``CellTable`` holding the ``bell_cells``; otherwise they are collected
    from it.
    """
    _check_sampling(source.n_frames, block_len, n_boot)
    rows = _check_rows(m, range(m) if y1_rows is None else y1_rows)
    if geom is None and isinstance(source, FrameSet):
        geom = source.geometry
    if geom is None:
        raise ValueError("geometry required (pass geom= or use a FrameSet with geometry)")
    if y2 is None:
        y2 = (source.height if isinstance(source, CellTable) else source.pixels.shape[1]) - 1
    if y2 in rows:
        raise ValueError("y2 must differ from the y1 rows (pixels may share columns)")
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")

    cells = bell_cells(geom, angles, rows, y2, n_realizations)
    table = _cell_table(source, cells)
    # per realization, the block columns [s | t | num] of _ch74_four_term's
    # 4m + 20 series; BLAS rounding depends on column position
    blocks = []
    realizations = []
    for start in range(0, len(cells), 4 * m + 4):
        real = cells[start:start + 4 * m + 4]
        s, num, t = _blocks(table, [real[k:k + m] for k in range(0, 4 * m, m)],
                            real[4 * m:], block_len, shuffle)
        blocks += [s, t, num]
        # the realization's columns, read back from its cells in the key
        # order of _bell_columns: the s columns, then the t columns
        realizations.append(dict(zip(_S_KEYS + _T_KEYS,
                                     [c for c, _ in real[:4 * m:m] + real[4 * m:]])))

    def replicate(mean: np.ndarray) -> np.ndarray:
        return _ch74_four_term(mean.reshape(len(mean), n_realizations, -1), m)[0].mean(axis=1)

    mean, boot = _resample(np.concatenate(blocks, axis=1), table.n_frames, block_len,
                           n_boot, (boot_seed, 0xBE11), replicate)
    per_realization, probs = _ch74_four_term(mean.reshape(n_realizations, -1), m)
    statistic = float(np.mean(per_realization))
    stderr = float(boot.std(ddof=1))

    phase_map = geom.phase_map()
    achieved = []
    vis_samples = []
    for cols, pack_probs in zip(realizations, probs):
        args = {}
        for (sk, tk), prob in zip(_PACKS, pack_probs.ravel()):
            arg = float(phase_map[cols[sk]] - phase_map[cols[tk]])
            args[f"{sk}-{tk}"] = arg
            if abs(math.cos(arg)) > 0.2:
                vis_samples.append((4.0 * prob - 1.0) / math.cos(arg))
        achieved.append({"gauge_columns": {k: int(v) for k, v in cols.items()},
                         "arguments": args})
    visibility_used = float(np.mean(vis_samples)) if vis_samples else float("nan")

    return FrameBellReport(
        statistic=statistic,
        stderr=stderr,
        violates_lower=(statistic + 2.0 * stderr) < LOWER_BOUND,
        violates_upper=(statistic - 2.0 * stderr) > UPPER_BOUND,
        model_tag=BellModel.FOUR_TERM_TLS,
        visibility_used=visibility_used,
        n_frames=table.n_frames,
        n_realizations=n_realizations,
        m=m,
        achieved=achieved,
    )
