"""Estimators of normalized higher-order correlations from frame stacks.

The central quantity is
    ghat(x2) = < prod_i I(x1, y_i) * I(x2, y2) >_frames
               / ( prod_i <I(x1, y_i)> * <I(x2, y2)> ),
the (m+1)-th order correlation normalized by first-order averages, estimated
in a single pass: frame means are ``math.fsum`` of block sums, the exact
sum rounded once, taken once per series when the pass ends.  Error bars
come from a block bootstrap over frames (frames may carry residual
temporal correlation).
Visibility is extracted by weighted least squares against
A * (1 + V cos(delta(x2) - phi)) with the fringe period fixed by geometry.

``bell_from_frames`` measures the four joint quantities of the post-selected
(m+1)-photon scheme at pixels realizing the Bell cosine arguments, normalizes
them per setting (four-term normalization), and evaluates the CH74 statistic.
Because the inequality holds for arbitrary angles, the statistic is evaluated
at the phases the pixel grid actually achieves; violation is asserted only
when the bound is exceeded by at least two standard errors.

One pass from the stack to block sums.  Every estimate here reads frames
only through sums over bootstrap blocks: of its x1 cells, of its x2 cells
and of its numerators, the product of a group of x1 cells times an x2 cell.
``gm1_terms`` and ``bell_terms`` check the arguments of one estimate and
name those series as terms, each group's cells on ascending rows
(``_check_rows``); a group's product, of frames and of frame means alike,
multiplies its cells left to right in that order, so it does not depend on
the order the rows were given in.  ``collect_cells`` makes the block
sums of every series a list of terms reads in one pass over the stack and
keeps them in a ``BlockTable``, a [K, n_blocks] float64 matrix, one row per
series as the pass makes them, with the K frame means, and no per-frame
series; its table does not depend on the worker count.  Each estimate reads
its point estimate from the table's means and resamples its series' block
sums.
``analyze``, the analysis ``thermalbell correlate`` runs, plans the union
of every m and every Bell realization, reads the stack once and hands the
same table to each estimate.

Matrix bootstrap.  Each replicate draws ``rng.integers(0, nb, nb)`` block
indices, one draw per replicate in a fixed order, as a per-replicate loop
would.  The draws of a group of replicates become rows of block counts W,
and the group's resampled sums are the products ``W @ block_sums`` and
``W @ block_lengths``.  Only the summation order differs from resampling
block by block, so bootstrap errors move in the last digits; point
estimates do not use the bootstrap and are unchanged.  BLAS picks that
order, and its rounding depends on the thread count and on the block
matrix ``_resample`` builds.  The series order is fixed ([x1 | num | x2]
for ``estimate_gm1``, [s | t | num] per Bell realization), and the products
run on one OpenBLAS thread (``blas.one_thread``), so the bootstrap errors
do not depend on the thread count either.
"""

from __future__ import annotations

import contextlib
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .bell import (BellModel, BellReport, LOWER_BOUND, UPPER_BOUND, AngleSet,
                   angle_set, ch74, detector_phases)
from .config import CorrelateConfig, parse_m_range
from .errors import (ConfigError, InsufficientFramesError, NumericGuardError,
                     PeriodCoverageError, SamplingGuardError)
from .speckle import FrameSet, Geometry
from . import blas, speckle, spkl

MIN_FRAMES = 100
# A block bootstrap over fewer blocks has next to no spread to resample (one
# block gives a zero error bar); 7 is 400 frames at the default block length.
MIN_BLOCKS = 7
DEFAULT_BLOCK_LEN = 64
DEFAULT_N_BOOT = 200
# Replicates per count matrix W, which holds BOOT_GROUP * n_blocks floats.
BOOT_GROUP = 32
# Pixels per chunk of the pass: 1024 frames of a 128 x 8 grid.  A chunk is
# as many whole blocks as fit, and at least one.
CHUNK_PIXELS = 1 << 20
# Pixels per read of a chunk: 1 MB of float32 frames, 256 frames of a
# 128 x 8 grid, and at least one frame.
READ_PIXELS = 1 << 18
# Least det / (a d f) of the fit's normal matrix [[a, b, c], [b, d, e],
# [c, e, f]]: the determinant of the matrix scaled to a unit diagonal, in
# (0, 1] by Hadamard's bound.  Each term of det is at most a d f
# (Cauchy-Schwarz), so rounding leaves a few ulps of a d f: a singular
# matrix (a scan of two distinct phases) gives up to 4e-16.  The inverse
# grows as a d f / det, so above this its rounding stays below about 1e-6
# relative; a contiguous scan of a fringe period gives 0.2 to 1.
RANK_TOL = 1e-9


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
# The series one estimate reads: groups of x1 cells, and the x2 cells.  Each
# group's product, taken in the group's order (ascending rows), times each
# x2 cell's series is a numerator.
Term = tuple[tuple[tuple[Cell, ...], ...], tuple[Cell, ...]]


@contextlib.contextmanager
def _frames(source: FrameSet | str | Path) -> Iterator[
        tuple[tuple[int, int, int], np.dtype, Callable[[int, int, np.ndarray], np.ndarray]]]:
    """Shape [N, height, width] of a frame stack, the dtype of its pixels,
    and a reader of ``count`` frames from ``start``, which a file reads
    into ``buf`` [>= count, height, width].  A file is open until the block
    ends."""
    if isinstance(source, FrameSet):
        pixels = source.pixels
        yield pixels.shape, pixels.dtype, lambda start, count, buf: pixels[start:start + count]
        return
    with spkl.SpklReader(source) as reader:
        header = reader.header
        yield ((header.n_frames, header.height, header.width), np.dtype("<f4"),
               lambda start, count, buf: reader.read(start, count, out=buf[:count]))


class BlockTable:
    """Block sums of the series a set of estimates reads, from one pass over
    a stack (``collect_cells``).

    ``blocks`` [K, n_blocks] holds float64 sums over blocks of ``block_len``
    frames, the last block holding the rest, one C-contiguous row per
    series: first one per distinct cell series, then per term its
    numerators, group-major.  With ``shuffle`` the x2 cells' series
    (numerators included) are those of the next frame, cyclically.
    ``means`` [K] holds each series' frame mean, ``math.fsum`` of its row
    over ``n_frames``.
    ``workers`` is the pass's thread count and ``buffer_bytes`` the size of
    the buffers it made for them, freed before it returned.
    """

    def __init__(self, shape: tuple[int, int, int], terms: Sequence[Term],
                 block_len: int, shuffle: bool):
        self.n_frames, self.height, self.width = shape
        self.block_len, self.shuffle = block_len, shuffle
        keys: dict[tuple[Cell, bool], None] = {}
        for groups, x2 in terms:
            keys.update(dict.fromkeys((c, shuffle) for c in x2))
            keys.update(dict.fromkeys((c, False) for g in groups for c in g))
        # (cell, of the next frame): the series of this frame first
        self.cells = sorted(keys, key=lambda key: key[1])
        self._cell_row = {key: j for j, key in enumerate(self.cells)}
        self._num_row: dict[Term, int] = {}
        k = len(self.cells)
        for groups, x2 in terms:
            if (groups, x2) not in self._num_row:
                self._num_row[(groups, x2)] = k
                k += len(groups) * len(x2)
        self.blocks = np.empty((k, -(-self.n_frames // block_len)))
        self.means = np.empty(k)
        self.workers = self.buffer_bytes = 0

    def _names(self, j: int) -> str:
        """The pixels whose product row ``j`` sums."""
        if j < len(self.cells):
            series = [self.cells[j]]
        else:
            (groups, x2), first = [item for item in self._num_row.items() if item[1] <= j][-1]
            i, s = divmod(j - first, len(x2))
            series = [(c, False) for c in groups[i]] + [(x2[s], self.shuffle)]
        return " x ".join(f"column {c}, row {r}" + " of the next frame" * next_frame
                          for (c, r), next_frame in series)

    def columns(self, term: Term) -> tuple[list[int], list[int], list[int]]:
        """The series of ``term``, as rows of ``blocks`` (the columns of its
        bootstrap matrix): its x1 cells (group-major), its numerators and
        its x2 cells."""
        if term not in self._num_row:
            raise ValueError(f"term {term} is not in the table")
        (groups, x2), first = term, self._num_row[term]
        return ([self._cell_row[(c, False)] for g in groups for c in g],
                list(range(first, first + len(groups) * len(x2))),
                [self._cell_row[(c, self.shuffle)] for c in x2])


def collect_cells(source: FrameSet | str | Path, terms: Sequence[Term],
                  block_len: int = DEFAULT_BLOCK_LEN, shuffle: bool = False) -> BlockTable:
    """Block sums of every series ``terms`` read, in one pass over the stack.

    A chunk is as many whole blocks as CHUNK_PIXELS pixels of frames hold,
    and at least one.  Worker threads, one per CPU this process may run on
    (``speckle._worker_count``), take the chunks in turn.  The buffers a
    chunk needs are made before the workers start, one set per worker, and
    freed before this returns; a worker takes a set for each chunk and puts
    it back, so the pass holds the same memory from start to end
    (``BlockTable.buffer_bytes``).  A worker gathers its chunk's cells into
    float64 rows (with ``shuffle``, one frame more: the next-frame series
    start a frame later), from reads of up to READ_PIXELS pixels, and
    refuses a value that is not finite and nonnegative
    (``NumericGuardError``).  It makes the products of all groups at once,
    each in its group's order (``_row_products``), a shorter group padded
    with a row of ones after the cell rows, which leaves its product's bits
    unchanged; the factors come one at a time into a buffer of its set
    (``_Rows``).  It multiplies the products by the x2 rows, and
    ``np.add.reduceat``s cells and numerators along the frames straight
    into its blocks of each series' row of the table; a product or sum
    beyond the float range leaves an inf or nan there, without a warning.
    A chunk of whole blocks gives the whole series' block sums bit for bit,
    so the table does not depend on the worker count.  The workers are
    joined before this returns or raises.  After the pass, each row's total
    is one ``math.fsum``, taken once, and the table's means are the totals
    over ``n_frames``.  A total whose fsum overflows, or that is not
    finite, is refused, naming the pixels of its series
    (``NumericGuardError``), and so is a cell whose total is zero, a pixel
    dark in every frame: every cell is a denominator of some ghat, which it
    would make nan.  An SPKL file is opened and its header checked
    once per pass (``spkl.SpklReader``); the workers read their ranges from
    that one descriptor, which is closed when the pass ends, also on error.
    """
    with _frames(source) as (shape, dtype, read):
        return _collect(shape, dtype, read, terms, block_len, shuffle)


def _collect(shape: tuple[int, int, int], dtype: np.dtype,
             read: Callable[[int, int, np.ndarray], np.ndarray], terms: Sequence[Term],
             block_len: int, shuffle: bool) -> BlockTable:
    """``collect_cells`` from a stack of ``shape`` read by ``read``."""
    n_frames, height, width = shape
    table = BlockTable(shape, terms, block_len, shuffle)
    cols, rows = np.array([cell for cell, _ in table.cells], dtype=int).reshape(-1, 2).T
    if np.any((cols < 0) | (cols >= width) | (rows < 0) | (rows >= height)):
        raise ValueError(f"pixel index out of range: columns [0, {width}), rows [0, {height})")
    flat = rows * width + cols
    n_now = sum(not next_frame for _, next_frame in table.cells)
    shift = int(shuffle)          # the next-frame rows' frame offset
    chunk = max(1, CHUNK_PIXELS // (height * width) // block_len) * block_len
    read_len = min(max(1, READ_PIXELS // (height * width)), chunk + shift)
    # the factor table [largest group size, groups]: each group's cell rows
    # in its order, a shorter group padded with the row of ones that follows
    # the cell rows (x * 1.0 is x, and log(1.0) is +0.0)
    groups = list(dict.fromkeys(g for gs, _ in terms for g in gs))
    group_row = {g: i for i, g in enumerate(groups)}
    factors = np.full((max(map(len, groups), default=0), len(groups)), len(flat))
    for i, g in enumerate(groups):
        factors[:len(g), i] = [table._cell_row[(c, False)] for c in g]
    # per term: product rows, x2 rows (a slice where contiguous), first row
    numerators = []
    for (gs, x2), first in table._num_row.items():
        sel = [table._cell_row[(c, shuffle)] for c in x2]
        if sel == list(range(sel[0], sel[0] + len(sel))):
            sel = slice(sel[0], sel[0] + len(x2))
        numerators.append(([group_row[g] for g in gs], sel, first, len(x2)))
    starts = range(0, n_frames, chunk)
    table.workers = max(1, speckle._worker_count(len(starts)))
    # the buffer sets not in use, one per worker, made here: reads, gathered
    # cells, float64 cells and the row of ones (the cell rows are written
    # before they are read), a factor of every group's product and
    # numerators.  A worker takes one for a chunk and puts it back;
    # list.pop and list.append are atomic.
    free = [(np.empty((read_len, height, width), dtype),
             np.empty((read_len, len(flat)), dtype),
             np.ones((len(flat) + 1, chunk + shift)),
             np.empty((len(groups), chunk + shift)),
             np.empty((max((count for *_, count in numerators), default=0), chunk)))
            for _ in range(table.workers)]
    table.buffer_bytes = sum(a.nbytes for buffers in free for a in buffers)

    def work(a: int) -> None:
        buffers = free.pop()
        try:
            fill(a, *buffers)
        finally:
            free.append(buffers)

    def fill(a: int, buf: np.ndarray, gathered: np.ndarray, cell: np.ndarray,
             factor: np.ndarray, num: np.ndarray) -> None:
        n = min(chunk, n_frames - a)
        # frames a .. a + n + shift - 1; frame n_frames is frame 0
        lo = a
        while lo < a + n + shift:
            hi = min(lo + read_len, a + n + shift, max(n_frames, lo + 1))
            frames = read(lo % n_frames, hi - lo, buf).reshape(hi - lo, -1)
            np.take(frames, flat, axis=1, out=gathered[:hi - lo], mode="clip")
            cell[:len(flat), lo - a:hi - a] = gathered[:hi - lo].T
            lo = hi
        values = cell[:len(flat), :n + shift]
        if not (values.min() >= 0 and values.max() < np.inf):
            j, i = np.argwhere(~((values >= 0) & (values < np.inf)).T)[0]
            c, r = table.cells[i][0]
            raise NumericGuardError(
                f"frame {(a + j) % n_frames}, column {c}, row {r} holds {values[i, j]}: "
                "intensities must be finite and nonnegative")
        block_starts = np.arange(0, n, block_len)
        out = table.blocks[:, a // block_len:a // block_len + len(block_starts)]
        # a product or sum beyond the float range is an inf or nan block sum,
        # which the totals refuse after the pass
        with np.errstate(all="ignore"):
            np.add.reduceat(cell[:n_now, :n], block_starts, axis=1, out=out[:n_now])
            np.add.reduceat(cell[n_now:len(flat), shift:shift + n], block_starts, axis=1,
                            out=out[n_now:len(flat)])
            prod = _row_products(_Rows(cell, factors, n, factor)) if groups else None
            for gs, sel, first, count in numerators:
                x2 = cell[sel, shift:shift + n]     # taken once per term, not per group
                for i, g in enumerate(gs):
                    np.multiply(prod[g], x2, out=num[:count, :n])
                    np.add.reduceat(num[:count, :n], block_starts, axis=1,
                                    out=out[first + i * count:first + (i + 1) * count])

    # leaving the block cancels the chunks not yet started and joins the
    # workers, also when a chunk raises
    with ThreadPoolExecutor(max_workers=table.workers, thread_name_prefix="collect") as pool:
        for _ in pool.map(work, starts):
            pass
    del free                        # the buffer sets, before the checks below

    def out_of_range(j: int, what: str) -> NumericGuardError:
        return NumericGuardError(f"the sum over all frames of {table._names(j)} {what}: "
                                 "its values overflow the float range")
    totals = np.empty(len(table.blocks))
    for j, row in enumerate(table.blocks):
        # a memoryview yields plain floats, which fsum takes faster than
        # numpy scalars
        try:
            totals[j] = math.fsum(memoryview(row))
        except OverflowError as exc:    # finite block sums, too large a total
            raise out_of_range(j, "overflows") from exc
    bad = np.flatnonzero(~np.isfinite(totals))
    if len(bad):
        raise out_of_range(bad[0], f"is {totals[bad[0]]}")
    # values are nonnegative, so a zero total is a pixel dark in every frame
    dark = np.flatnonzero(totals[:len(flat)] == 0)
    if len(dark):
        c, r = table.cells[dark[0]][0]
        raise NumericGuardError(
            f"column {c}, row {r} is zero in every frame: its mean divides every "
            "correlation it enters")
    np.divide(totals, n_frames, out=table.means)
    return table


# An SPKL file is read through a BlockTable, which ``collect_cells`` fills.
FrameSource = FrameSet | BlockTable


def _block_table(source: FrameSource, terms: Sequence[Term], block_len: int,
                 shuffle: bool) -> BlockTable:
    """The table to read: ``source`` itself, or one pass over it for ``terms``."""
    if not isinstance(source, BlockTable):
        return collect_cells(source, terms, block_len, shuffle)
    if (source.block_len, source.shuffle) != (block_len, shuffle):
        raise ValueError(f"the table holds blocks of {source.block_len} frames with "
                         f"shuffle={source.shuffle}; {block_len} and {shuffle} requested")
    return source


def _row_products(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Per-frame products of the series in ``columns`` (arrays of one shape),
    multiplied left to right in the order given: the product of the first
    k + 1 series is that of the first k times the next, bit for bit.

    Groups come on ascending rows (``_check_rows``), so a product does not
    depend on the order the rows were given in.  Frames whose direct
    product over/underflows despite all-positive factors are recomputed in
    the log domain, the logs summed in the same order.  Each use of
    ``columns`` reads its items one at a time, so a sequence may hand them
    all out in one buffer (``_Rows``).
    """
    def v(k: int) -> np.ndarray:
        return np.asarray(columns[k], dtype=np.float64)
    p = np.array(v(0))
    with np.errstate(over="ignore"):        # such frames are recomputed below
        for k in range(1, len(columns)):
            p *= v(k)
    bad = ~np.isfinite(p)
    zero = p == 0
    if np.any(zero):
        bad |= zero & np.logical_and.reduce([v(k) > 0 for k in range(len(columns))])
    if np.any(bad):
        logs = np.log(v(0)[bad])
        for k in range(1, len(columns)):
            logs += np.log(v(k)[bad])
        p[bad] = np.exp(logs)
    return p


class _Rows:
    """The columns ``_row_products`` multiplies for every group at once:
    item k is the first ``n`` values of the rows ``rows[k]`` of ``cells``
    (the k-th cell of each group, or the row of ones past its end), taken
    into ``out`` when asked for, so every item is the same buffer.  The
    whole rows are taken: ``np.take`` would copy a source that is not
    C-contiguous, as the first ``n`` columns of ``cells`` may not be."""

    def __init__(self, cells: np.ndarray, rows: np.ndarray, n: int, out: np.ndarray):
        self.cells, self.rows, self.n, self.out = cells, rows, n, out

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, k: int) -> np.ndarray:
        taken = np.take(self.cells, self.rows[k], axis=0, out=self.out, mode="clip")
        return taken[:, :self.n]


def _ghat(x1: np.ndarray, num: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """ghat from frame means, for any leading shape: the numerators ``num``
    [..., G, S] over the product of each group's x1 means ``x1`` [..., G, m],
    taken in the group's order, times the x2 means ``x2`` [..., S].  Returns
    [..., G, S]."""
    x1_prod = _row_products([x1[..., i] for i in range(x1.shape[-1])])
    return num / (x1_prod[..., None] * x2[..., None, :])


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

    This is the order every group's product multiplies its cells in, so the
    products do not depend on the order the rows were given in, and the
    fixed column order keeps the bootstrap sums bit-identical too.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    rows = sorted(y1_rows)
    if len(rows) != m or len(set(rows)) != m:
        raise ValueError(f"y1_rows must be {m} distinct rows, got {rows}")
    return rows


def _resample(table: BlockTable, columns: Sequence[int], n_boot: int,
              seed: tuple[int, int], statistic) -> np.ndarray:
    """Block-bootstrap replicates of ``statistic`` of resampled frame means
    of the series ``columns`` of ``table``.

    The block sums of those series, in that order, are the columns of one
    C-contiguous matrix ``blocks`` [nb, C], gathered in one copy: BLAS
    rounding depends on each column's position and on the memory order.
    Blocks hold ``table.block_len`` frames, the last block the rest of the
    ``table.n_frames``.  Replicate r draws ``rng.integers(0, nb, nb)``, and
    its block counts fill row r of a group of BOOT_GROUP rows, the count
    matrix W; ``statistic`` receives the group's means
    ``(W @ blocks) / (W @ lengths)`` [g, C].  Returns the stacked replicate
    values, nan or inf where a mean the statistic divides by is zero, which
    the caller refuses (``_refuse_non_finite``).
    """
    blocks = np.stack([table.blocks[j] for j in columns], axis=1)
    nb, block_len = len(blocks), table.block_len
    lengths = np.minimum(block_len, table.n_frames - block_len * np.arange(nb)).astype(float)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = []
    for start in range(0, n_boot, BOOT_GROUP):
        weights = np.empty((min(BOOT_GROUP, n_boot - start), nb))
        for row in weights:
            row[:] = np.bincount(rng.integers(0, nb, nb), minlength=nb)
        # one BLAS thread: with thousands of blocks the products' rounding
        # would otherwise depend on the thread count
        with blas.one_thread():
            means = (weights @ blocks) / (weights @ lengths)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            out.append(statistic(means))
    return np.concatenate(out)


def _refuse_non_finite(boot: np.ndarray, m: int, quantity: str,
                       columns: np.ndarray | None = None) -> None:
    """Refuse bootstrap replicates ``boot`` [n_boot, S] of ``quantity`` that
    are not all finite: they would give a nan error bar.  ``columns`` names
    the x2 column of each of the S values."""
    bad = ~np.isfinite(boot)
    if bad.any():
        j = np.flatnonzero(bad.any(axis=0))[0]
        where = "" if columns is None else f", x2 column {columns[j]}"
        raise NumericGuardError(
            f"m = {m}{where}: {bad[:, j].sum()} of {len(boot)} bootstrap replicates of "
            f"{quantity} are not finite: a pixel mean it divides by is zero in the blocks "
            "they drew")


def gm1_terms(m: int, x1: int, y1_rows: Sequence[int], x2_scan: Sequence[int],
              y2: int) -> list[Term]:
    """The one term ``estimate_gm1`` reads: the x1 pixels on the rows in
    ascending order as one group, and the scan.  Bad arguments raise here,
    so a planned read fails before its pass over the stack."""
    rows = _check_rows(m, y1_rows)
    x2_scan = list(x2_scan)
    if not x2_scan:
        raise ValueError("x2_scan must be nonempty")
    if y2 in rows and x1 in x2_scan:
        raise ValueError(
            f"x2 scan hits column {x1} on row {y2}, which is already used as an "
            "x1 pixel; choose a different y2 row")
    return [((tuple((x1, r) for r in rows),), tuple((c, y2) for c in x2_scan))]


def estimate_gm1(source: FrameSource, m: int, x1: int,
                 y1_rows: Sequence[int], x2_scan: Sequence[int], y2: int,
                 *, n_boot: int = DEFAULT_N_BOOT,
                 block_len: int = DEFAULT_BLOCK_LEN, boot_seed: int = 0,
                 shuffle: bool = False) -> CorrelationCurve:
    """Normalized (m+1)-th order correlation over a scan of x2 columns.

    m pixels sit at column x1 on the distinct rows ``y1_rows``; the single
    second-side pixel scans ``x2_scan`` on row ``y2``.  ``shuffle`` pairs the
    x1 product of frame i with the x2 values of frame i+1, destroying genuine
    correlations (control estimator).  ``source`` may be a ``BlockTable``
    holding the ``gm1_terms``; otherwise they are collected from it.
    """
    _check_sampling(source.n_frames, block_len, n_boot)
    [term] = gm1_terms(m, x1, y1_rows, x2_scan, y2)
    table = _block_table(source, [term], block_len, shuffle)
    x1_cols, num_cols, x2_cols = table.columns(term)
    columns = x1_cols + num_cols + x2_cols
    n_scan = len(x2_cols)

    def ghat(mean: np.ndarray) -> np.ndarray:
        return _ghat(mean[..., None, :m], mean[..., None, m:-n_scan],
                     mean[..., -n_scan:])[..., 0, :]

    boot = _resample(table, columns, n_boot, (boot_seed, 0xB00727), ghat)
    x2_positions = np.array(term[1], dtype=int)[:, 0]
    _refuse_non_finite(boot, m, "ghat", x2_positions)
    return CorrelationCurve(m=m, x2_positions=x2_positions,
                            values=ghat(table.means[columns]), stderr=boot.std(axis=0, ddof=1),
                            n_frames_used=table.n_frames)


def _check_coverage(geom: Geometry, columns: Sequence[int]) -> np.ndarray:
    """Fringe phases of the scanned ``columns``, which the fixed-period fit
    needs to span at least one full fringe period."""
    delta = geom.phase_map()[np.asarray(columns)]
    if delta.max() - delta.min() < 2.0 * math.pi - 1e-9:
        raise PeriodCoverageError(
            f"scan spans {(delta.max() - delta.min()) / (2 * math.pi):.2f} fringe "
            "periods; at least one full period required")
    return delta


def fit_visibility(curve: CorrelationCurve, geom: Geometry) -> VisibilityEstimate:
    """Weighted least-squares visibility of a correlation curve.

    The model A * (1 + V cos(delta - phi)) is linear in
    (A, A V cos phi, A V sin phi); the phase map delta(x2) comes from the
    geometry with the fringe period fixed, so no iterative fitting is needed.
    Requires the scan to span at least one full fringe period, and every
    weight 1/stderr^2 finite and > 0.

    The 3 x 3 weighted normal matrix is inverted once, by cofactors, and the
    coefficients, the delta-method variance of V and the residual are read
    from that inverse.  Every sum is one ``math.fsum`` of Python floats and
    the phases go through libm, so no BLAS, LAPACK or SIMD loop decides a
    bit of the estimate: stderrs scaled by a power of two (short of over-
    and underflow) give V and the residual to the bit, and V's stderr scaled
    alike.  A matrix singular to working precision (``RANK_TOL``) and a sum
    that overflows or adds inf to -inf are refused, naming m.
    """
    def fsum(terms: Iterable[float]) -> float:
        try:
            return math.fsum(terms)
        except (OverflowError, ValueError) as exc:
            raise NumericGuardError(f"m = {curve.m}: the fit's sums fail ({exc})") from exc

    delta = _check_coverage(geom, curve.x2_positions).tolist()
    y = [float(v) for v in curve.values]
    se = [float(s) for s in curve.stderr]
    w = [1.0 / s / s if s > 0 else math.nan for s in se]
    bad = [k for k, wk in enumerate(w) if not (math.isfinite(wk) and wk > 0)]
    if bad:
        raise NumericGuardError(f"m = {curve.m}: x2 column {curve.x2_positions[bad[0]]} has "
                                f"stderr {se[bad[0]]}, but each point is weighted by 1/stderr^2")
    cols = ([1.0] * len(delta), [math.cos(x) for x in delta], [math.sin(x) for x in delta])

    def wsum(u: list[float], v: list[float]) -> float:
        return fsum(wk * uk * vk for wk, uk, vk in zip(w, u, v))

    a, b, c, d, e, f = (wsum(cols[i], cols[j]) for i, j in
                        ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)))
    rhs = [wsum(col, y) for col in cols]
    cof = [[d * f - e * e, c * e - b * f, b * e - c * d],
           [c * e - b * f, a * f - c * c, b * c - a * e],
           [b * e - c * d, b * c - a * e, a * d - b * b]]
    # plain sums: an inf - inf here is a nan the check refuses, where
    # math.fsum would raise
    det = a * cof[0][0] + b * cof[0][1] + c * cof[0][2]
    if not (math.isfinite(det) and det > 0 and det / a / d / f >= RANK_TOL):
        raise NumericGuardError(f"m = {curve.m}: the weighted normal matrix of the fit "
                                f"has determinant {det}, not a finite value >= "
                                f"{RANK_TOL:g} x the product of its diagonal")
    inv = [[x / det for x in row] for row in cof]
    c0, c1, c2 = (fsum(inv[i][j] * rhs[j] for j in range(3)) for i in range(3))
    if c0 <= 0:
        raise PeriodCoverageError(f"degenerate fit: nonpositive midline {c0}")
    r = math.hypot(c1, c2)
    vis = r / c0
    grad = [-r / (c0 * c0), c1 / (r * c0), c2 / (r * c0)] if r > 0 else [0.0, 1 / c0, 1 / c0]
    var = fsum(grad[i] * inv[i][j] * grad[j] for i in range(3) for j in range(3))
    # a rounding-negative variance is 0; a nan one stays nan, as the value does
    stderr = 0.0 if var < 0 else math.sqrt(var)
    misfit = [yk - fsum([c0, c1 * ck, c2 * sk]) for yk, ck, sk in zip(y, *cols[1:])]
    residual = math.sqrt(fsum(x * x for x in misfit) / len(y)) / c0
    return VisibilityEstimate(value=min(max(vis, 0.0), 1.0),
                              stderr=stderr, fit_residual=residual)


# Columns of a realization: the s settings with their pi partners, then the t
# settings with theirs.  Per pack, the (s, t) indices of its setting pair;
# packs follow the CH74 joint order (d1,d2), (d1,d2'), (d1',d2), (d1',d2').
_KEYS = ("s1", "p1", "s1p", "p1p", "s2", "p2", "s2p", "p2p")
_PACKS = ((0, 4), (0, 6), (2, 4), (2, 6))


def _snap(phase_map: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest column to each target phase (ties to the lower column) and
    its signed phase error."""
    cols = np.argmin(np.abs(phase_map - targets[..., None]), axis=-1)
    return cols, phase_map[cols] - targets


def _bell_realizations(geom: Geometry, angles: AngleSet, n_realizations: int
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pixel columns [n_realizations, 8] (in ``_KEYS`` order) of gauges of
    the angle tuple, spread evenly over the gauges the grid can realize,
    with each column's target phase and signed snap error (same shape).

    512 gauges offset the four settings along the fringe.  Each setting
    snaps to its nearest column; its partner snaps to that column's phase
    + pi, or - pi where that is strictly nearer.  A gauge is usable when
    every snap error is within 0.75 of the median phase step.
    """
    phase_map = geom.phase_map()
    steps = np.sort(np.abs(np.diff(phase_map)))
    half = len(steps) // 2    # the median, without the numpy.ma np.median imports
    median = steps[half] if len(steps) % 2 else (steps[half - 1] + steps[half]) / 2
    max_snap = 0.75 * float(median)
    gauges = np.linspace(phase_map.min(), phase_map.max(), 512)
    targets = np.add.outer(gauges, detector_phases(angles))
    cols, err = _snap(phase_map, targets)
    plus, plus_err = _snap(phase_map, phase_map[cols] + math.pi)
    minus, minus_err = _snap(phase_map, phase_map[cols] - math.pi)
    use_minus = np.abs(minus_err) < np.abs(plus_err)
    partner_err = np.where(use_minus, minus_err, plus_err)
    usable = np.flatnonzero(np.all((np.abs(err) <= max_snap)
                                   & (np.abs(partner_err) <= max_snap), axis=1))
    if len(usable) < n_realizations:
        raise SamplingGuardError(
            f"only {len(usable)} pixel realizations of the angle tuple fit the "
            f"grid; {n_realizations} requested")
    picks = usable[np.linspace(0, len(usable) - 1, n_realizations).round().astype(int)]

    def pick(setting: np.ndarray, partner: np.ndarray) -> np.ndarray:
        # [gauge, setting (d1, d1', d2, d2'), setting | partner]
        return np.stack([setting, partner], axis=-1)[picks].reshape(-1, 8)
    return (pick(cols, np.where(use_minus, minus, plus)),
            pick(targets, phase_map[cols] + np.where(use_minus, -math.pi, math.pi)),
            pick(err, partner_err))


def bell_terms(geom: Geometry, angles: AngleSet, m: int, y1_rows: Sequence[int],
               y2: int, n_realizations: int) -> list[Term]:
    """Terms ``bell_from_frames`` reads for these arguments, one per
    realization: the x1 pixels of each s column on the rows in ascending
    order (s-major, 4 groups of m), and the y2 pixels of the t columns.
    Bad arguments raise here, so a planned read fails before its pass over
    the stack."""
    rows = _check_rows(m, y1_rows)
    if y2 in rows:
        raise ValueError("y2 must differ from the y1 rows (pixels may share columns)")
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    return [(tuple(tuple((c, r) for r in rows) for c in cols[:4]),
             tuple((c, y2) for c in cols[4:]))
            for cols in _bell_realizations(geom, angles, n_realizations)[0].tolist()]


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
    ``BlockTable`` holding the ``bell_terms``; otherwise they are collected
    from it.
    """
    _check_sampling(source.n_frames, block_len, n_boot)
    geom = geom if geom is not None else getattr(source, "geometry", None)
    if geom is None:
        raise ValueError("geometry required (pass geom= or use a FrameSet with geometry)")
    y2 = geom.height - 1 if y2 is None else y2
    terms = bell_terms(geom, angles, m, range(m) if y1_rows is None else y1_rows, y2,
                       n_realizations)
    table = _block_table(source, terms, block_len, shuffle)
    # per realization, the series [s | t | num] of _ch74_four_term's 4m + 20
    columns = []
    for term in terms:
        s, num, t = table.columns(term)
        columns += s + t + num

    def replicate(mean: np.ndarray) -> np.ndarray:
        return _ch74_four_term(mean.reshape(len(mean), n_realizations, -1), m)[0].mean(axis=1)

    boot = _resample(table, columns, n_boot, (boot_seed, 0xBE11), replicate)
    _refuse_non_finite(boot[:, None], m, "the Bell statistic")
    per_realization, probs = _ch74_four_term(table.means[columns].reshape(n_realizations, -1), m)
    statistic = float(np.mean(per_realization))
    stderr = float(boot.std(ddof=1))

    phase_map = geom.phase_map()
    achieved = []
    vis_samples = []
    for (groups, x2), pack_probs in zip(terms, probs):
        cols = [g[0][0] for g in groups] + [c for c, _ in x2]
        args = {}
        for (s, t), prob in zip(_PACKS, pack_probs.ravel()):
            arg = float(phase_map[cols[s]] - phase_map[cols[t]])
            args[f"{_KEYS[s]}-{_KEYS[t]}"] = arg
            if abs(math.cos(arg)) > 0.2:
                vis_samples.append((4.0 * prob - 1.0) / math.cos(arg))
        achieved.append({"gauge_columns": dict(zip(_KEYS, cols)), "arguments": args})
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


@dataclass
class Analysis:
    """What ``analyze`` measured: per m, in the order of the m range, its
    curve and fit; the Bell report (None without ``bell``); the pixels
    used; and the run's diagnostics, as the sidecar records them."""

    curves: list[CorrelationCurve]
    fits: list[VisibilityEstimate]
    bell: FrameBellReport | None
    x1: int
    y2: int
    scan: range
    diagnostics: dict


def analyze(cfg: CorrelateConfig, source: FrameSet | str | Path, geom: Geometry) -> Analysis:
    """``thermalbell correlate``'s analysis of a stack file or a ``FrameSet``
    that ``geom`` describes, planned by ``cfg`` (its ``frames`` and ``out``
    are not read).  Every refusal comes before the one pass over the stack,
    which collects the terms of every m and every Bell realization; each m
    is then estimated and fitted in turn, and the Bell statistic last."""
    n_frames = source.n_frames if isinstance(source, FrameSet) \
        else spkl.read_header(source).n_frames
    _check_sampling(n_frames, cfg.block_len, cfg.n_boot)
    ms = parse_m_range(cfg.m_range)
    # explicit pixels are checked against the grid before the cells are planned
    explicit = [("--x1", cfg.x1, geom.width, "columns"), ("--y2", cfg.y2, geom.height, "rows")]
    explicit += [("--y1-rows", row, geom.height, "rows") for row in cfg.y1_rows or []]
    for flag, index, size, axis in explicit:
        if index is not None and not 0 <= index < size:
            raise ConfigError(f"{flag} {index} is outside the grid of {size} {axis} "
                              f"(0..{size - 1})")
    x1 = cfg.x1 if cfg.x1 is not None else int(np.argmin(np.abs(geom.phase_map())))
    y2 = cfg.y2 if cfg.y2 is not None else geom.height - 1
    scan = range(geom.width) if cfg.x2_range is None else _parse_span(cfg.x2_range, geom.width)
    _check_coverage(geom, scan)

    def rows_for(m: int) -> list[int]:
        if cfg.y1_rows is not None:
            return cfg.y1_rows
        if m + 1 > geom.height:
            raise ConfigError(f"m = {m} needs {m + 1} rows ({m} x1 rows and the y2 row); "
                              f"the grid is {geom.height} rows high")
        return list(range(m))

    terms = [term for m in ms for term in gm1_terms(m, x1, rows_for(m), scan, y2)]
    if cfg.bell:
        bell_m = cfg.bell_m if cfg.bell_m is not None else max(ms)
        angles = angle_set(cfg.angles, cfg.bound)
        terms += bell_terms(geom, angles, bell_m, rows_for(bell_m), y2, cfg.realizations)
    started = time.perf_counter()
    table = collect_cells(source, terms, cfg.block_len, cfg.shuffle)
    stage_s = {"collect": time.perf_counter() - started}

    started = time.perf_counter()
    curves, fits = [], []
    for m in ms:
        curves.append(estimate_gm1(table, m, x1, rows_for(m), scan, y2, n_boot=cfg.n_boot,
                                   block_len=cfg.block_len, boot_seed=cfg.boot_seed,
                                   shuffle=cfg.shuffle))
        fits.append(fit_visibility(curves[-1], geom))
    stage_s["curves"] = time.perf_counter() - started

    diagnostics = {"n_cells": len(table.cells), "collect_workers": table.workers,
                   "table_mb": table.blocks.nbytes / 1e6, "buffers_mb": table.buffer_bytes / 1e6,
                   "block_len": cfg.block_len, "n_blocks": table.blocks.shape[1],
                   "n_boot": cfg.n_boot, "stage_s": stage_s}
    report = None
    if cfg.bell:
        started = time.perf_counter()
        report = bell_from_frames(
            table, bell_m, angles, geom, y1_rows=rows_for(bell_m), y2=y2,
            n_realizations=cfg.realizations, n_boot=cfg.n_boot,
            block_len=cfg.block_len, boot_seed=cfg.boot_seed, shuffle=cfg.shuffle)
        stage_s["bell"] = time.perf_counter() - started
        # per realization, each column's target phase and signed snap error
        _, targets, errors = _bell_realizations(geom, angles, cfg.realizations)
        diagnostics["bell_snap"] = [
            {"target_rad": dict(zip(_KEYS, t)), "snap_error_rad": dict(zip(_KEYS, e))}
            for t, e in zip(targets.tolist(), errors.tolist())]
    # last: made before the Bell bootstrap, this lookup raised its peak RSS by ~1 MB
    diagnostics.update(blas.kernels())
    return Analysis(curves, fits, report, x1, y2, scan, diagnostics)
