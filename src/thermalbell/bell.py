"""CH74 Bell-statistic evaluation for the probability sets of this toolkit.

The inequality used is the probability form
    -1 <= P(a,b) - P(a,b') + P(a',b) + P(a',b') - P1(a') - P1(b) <= 0,
evaluated with the joint probabilities carrying a fringe
(1 +- V cos(argument))/N.  Canonical extremal angle choices drive the
four-cosine bracket to +-2*sqrt(2).

``ch74`` states the middle expression once, for scalars and arrays; the
frame estimator in ``correlate`` evaluates it too.  ``statistic_value`` is
its closed form for a fringe of visibility V and a given cosine bracket.

``angle_scan`` returns the extrema of the statistic over an n^3 grid of
realizable argument tuples, to the bit, from n x U work for the U distinct
sums t2 + t3: the statistic is monotone in the bracket, so only the sum
classes whose bracket bound comes near the best one are evaluated in full,
and ``np.cos`` gives a value the same bits wherever it sits in an array.

The scalar paths are plain ``math``: numpy is imported only by
``angle_scan`` and by ``statistic_value`` writing into an array, so the
closed-form ``bell`` command never loads it.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from .analytic import _check_visibility, visibility_tls
from .errors import ConfigError

if TYPE_CHECKING:
    import numpy as np

# Strict-inequality guard: a bound counts as violated only when exceeded by
# more than this, so violation claims never ride on rounding.
GUARD_BAND = 1e-12

# How closely a detector-phase realization must close t1 - t2 - t3 + t4 = 0
# (up to signs and 2pi) and reproduce each argument's cosine.
PHASE_TOL = 1e-9

LOWER_BOUND = -1.0
UPPER_BOUND = 0.0

BRACKET_MAX = 2.0 * math.sqrt(2.0)

# Grid points per argument of ``angle_scan``: a step giving more is a
# configuration error (exit 2), and at the maximum the scan takes about 0.3 s
# (its arrays stay below 2 MB at any n).
MAX_SCAN_POINTS = 2048


class BellModel(str, enum.Enum):
    """Which probability normalization feeds the statistic.

    The six-term variants normalize over all six detector pairs (second-order
    schemes, SPE or thermal); the four-term variant normalizes over the four
    cross pairs of the post-selected (m+1)-photon scheme.
    """

    SIX_TERM_SPE = "six_term_spe"
    SIX_TERM_TLS = "six_term_tls"
    FOUR_TERM_TLS = "four_term_tls"


class Bound(str, enum.Enum):
    UPPER = "upper"
    LOWER = "lower"


@dataclass(frozen=True)
class AngleSet:
    """The four cosine arguments entering the Bell bracket.

    These are the phase differences (d1-d2, d1-d2', d1'-d2, d1'-d2'), carried
    directly rather than as individual detector phases: only differences enter
    the statistic, and storing arguments avoids fixing the free gauge.  Use
    :func:`detector_phases` to obtain one consistent detector realization.
    """

    d1_d2: float
    d1_d2p: float
    d1p_d2: float
    d1p_d2p: float

    @property
    def arguments(self) -> tuple[float, float, float, float]:
        return (self.d1_d2, self.d1_d2p, self.d1p_d2, self.d1p_d2p)

    def bracket(self) -> float:
        """cos(t1) - cos(t2) + cos(t3) + cos(t4); bounded by +-2*sqrt(2)."""
        t1, t2, t3, t4 = self.arguments
        return math.cos(t1) - math.cos(t2) + math.cos(t3) + math.cos(t4)


UPPER_ANGLES = AngleSet(math.pi / 4, 3 * math.pi / 4, math.pi / 4, math.pi / 4)
LOWER_ANGLES = AngleSet(3 * math.pi / 4, math.pi / 4, 3 * math.pi / 4, 3 * math.pi / 4)


@dataclass
class BellReport:
    """Outcome of one Bell-statistic evaluation."""

    statistic: float
    violates_lower: bool
    violates_upper: bool
    model_tag: BellModel
    visibility_used: float
    lower_bound: float = LOWER_BOUND
    upper_bound: float = UPPER_BOUND

    def to_dict(self) -> dict:
        return {**asdict(self), "model_tag": self.model_tag.value}


def default_angles(bound: Bound) -> AngleSet:
    """Canonical extremal cosine-argument tuples.

    Upper: (pi/4, 3pi/4, pi/4, pi/4), bracket +2*sqrt(2).
    Lower: (3pi/4, pi/4, 3pi/4, 3pi/4), bracket -2*sqrt(2).
    """
    return UPPER_ANGLES if Bound(bound) is Bound.UPPER else LOWER_ANGLES


def angle_set(angles: list[float] | None, bound: Bound) -> AngleSet:
    """The configured cosine arguments, or the extremal ones for ``bound``.

    Explicit arguments must be differences of four detector phases; a tuple
    no detectors realize could report a bracket beyond 2*sqrt(2)."""
    if angles is None:
        return default_angles(bound)
    if len(angles) != 4:
        raise ConfigError("angles must list the four cosine arguments")
    chosen = AngleSet(*angles)
    try:
        detector_phases(chosen)
    except ValueError as exc:
        raise ConfigError(f"--angles: {exc}") from exc
    return chosen


def ch74(joints: np.ndarray, xp: float | np.ndarray,
         y: float | np.ndarray) -> float | np.ndarray:
    """j1 - j2 + j3 + j4 - P1(x') - P1(y), the CH74 middle expression, for
    joints [..., 4] ordered (xy, xy', x'y, x'y') and marginals ``xp``, ``y``
    broadcasting against ``joints[..., 0]``."""
    return (joints[..., 0] - joints[..., 1] + joints[..., 2] + joints[..., 3]
            - xp - y)


def statistic_value(model_tag: BellModel, visibility: float,
                    bracket: float | np.ndarray,
                    out: np.ndarray | None = None) -> float | np.ndarray:
    """Closed-form statistic for a given cosine bracket (scalar or array).

    Six-term: V*B/(6-2V) + 2/(6-2V) - 1.   Four-term: V*B/4 - 1/2.
    The two agree exactly at V = 1.  An array statistic is written into
    ``out`` when given (it may be ``bracket`` itself); the operations and
    their order are the same either way.
    """
    # in place on an array, rebinding on a scalar
    if out is None:
        value = visibility * bracket
    else:
        import numpy as np

        value = np.multiply(visibility, bracket, out=out)
    if BellModel(model_tag) is BellModel.FOUR_TERM_TLS:
        value /= 4.0
        value -= 0.5
        return value
    value += 2.0
    value /= 6.0 - 2.0 * visibility
    value -= 1.0
    return value


def bell_statistic(model_tag: BellModel, visibility: float, angles: AngleSet) -> BellReport:
    """Evaluate the CH74 statistic for the given normalization and angles."""
    visibility = _check_visibility(visibility)
    value = statistic_value(model_tag, visibility, angles.bracket())
    return BellReport(
        statistic=value,
        violates_lower=value < LOWER_BOUND - GUARD_BAND,
        violates_upper=value > UPPER_BOUND + GUARD_BAND,
        model_tag=BellModel(model_tag),
        visibility_used=visibility,
    )


def threshold_visibility(model_tag: BellModel, bound: Bound) -> float:
    """Least visibility violating the given bound at the extremal angles.

    Six-term: 2/(1+sqrt(2)) for the upper bound, 1/sqrt(2) for the lower.
    Four-term: 1/sqrt(2) for either bound (the four-term statistic is odd in
    the bracket around -1/2, so both bounds give the same threshold).
    """
    if BellModel(model_tag) is BellModel.FOUR_TERM_TLS:
        return 1.0 / math.sqrt(2.0)
    if Bound(bound) is Bound.UPPER:
        return 2.0 / (1.0 + math.sqrt(2.0))
    return 1.0 / math.sqrt(2.0)


def min_violating_m() -> int:
    """Smallest m whose (m+1)-th order thermal visibility m/(m+2) violates the
    four-term inequality at the extremal angles (m/(m+2) rises to 1, above
    the threshold, so the search ends)."""
    threshold = threshold_visibility(BellModel.FOUR_TERM_TLS, Bound.UPPER)
    return next(m for m in itertools.count(1) if visibility_tls(m) > threshold)


# A bracket and the bound of its class (see ``angle_scan``) differ by a few
# ulps of 4, about 3e-15; the candidate tests leave this much room.
_SLACK = 1e-13

# Entries per block of the scan's array work (pairs [t2, t3], or t1 slabs
# times classes): a few hundred kB of arrays at any grid size.
_BLOCK = 1 << 14


def _blocks(n: int, diags: np.ndarray):
    """Consecutive runs of the anti-diagonals ``diags`` of an n-point grid,
    each holding at most ``_BLOCK`` pairs (or one anti-diagonal)."""
    per = max(1, _BLOCK // n)
    return (diags[b:b + per] for b in range(0, len(diags), per))


def _anti_diagonal_pairs(n: int, diags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(j, k) of every pair of an n-point grid with j + k in ``diags``
    (ascending), anti-diagonal by anti-diagonal, j ascending."""
    import numpy as np

    lo = np.maximum(diags - (n - 1), 0)
    length = np.minimum(diags, n - 1) - lo + 1
    start = np.cumsum(length) - length
    j = np.arange(start[-1] + length[-1]) - np.repeat(start - lo, length)
    return j, np.repeat(diags, length) - j


def _sum_classes(grid: np.ndarray, cos: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct sums s_u of two grid points, ascending (the sums of
    successive anti-diagonals are about a grid step apart); [max, min] of
    cos t3 - cos t2 over the pairs [t2, t3] of each class ([2, U]); and the
    anti-diagonal j + k of each class."""
    import numpy as np

    n = len(grid)
    parts = []
    for diags in _blocks(n, np.arange(2 * n - 1)):
        j, k = _anti_diagonal_pairs(n, diags)
        pair = grid[j] + grid[k]
        order = np.argsort(pair)
        pair, diff = pair[order], (cos[k] - cos[j])[order]
        first = np.flatnonzero(np.diff(pair, prepend=-np.inf))
        parts.append((pair[first], np.maximum.reduceat(diff, first),
                      np.minimum.reduceat(diff, first), (j + k)[order[first]]))
    sums, dmax, dmin, diag = (np.concatenate(part) for part in zip(*parts))
    return sums, np.stack([dmax, dmin]), diag


def _class_bounds(cos_t1: float | np.ndarray, t1: float | np.ndarray,
                  sums: np.ndarray, extremes: np.ndarray) -> np.ndarray:
    """[the bound on the bracket, the bound on minus the bracket] of every
    class at one t1, or at a column of them ([2, ..., U]), so that both
    sides of the scan look for a largest value."""
    import numpy as np

    cos_t4 = np.cos(sums - t1)
    return np.stack([(cos_t1 + extremes[0]) + cos_t4,
                     -((cos_t1 + extremes[1]) + cos_t4)])


def _class_members(grid: np.ndarray, cos: np.ndarray, i: int, sums: np.ndarray,
                   diag: np.ndarray, classes: np.ndarray):
    """Blocks (j, k, bracket) of every pair [t2, t3] of the given classes
    (ascending indices) in the t1 slab i, each bracket in the full scan's
    operation order ((cos t1 - cos t2) + cos t3) + cos t4."""
    import numpy as np

    wanted = sums[classes]
    diags = diag[classes]
    for block in _blocks(len(grid), diags[np.diff(diags, prepend=-1) > 0]):
        j, k = _anti_diagonal_pairs(len(grid), block)
        pair = grid[j] + grid[k]
        keep = wanted[np.searchsorted(wanted, pair).clip(max=len(wanted) - 1)] == pair
        j, k, pair = j[keep], k[keep], pair[keep]
        bracket = (cos[i] - cos[j]) + cos[k]
        bracket += np.cos(pair - grid[i])
        yield j, k, bracket


def _first_tie(n: int, blocks, model_tag: BellModel, visibility: float,
               stat: float) -> int | None:
    """The least flat index j * n + k among the pairs of ``blocks`` whose
    statistic equals ``stat``, or None."""
    import numpy as np

    firsts = []
    for j, k, bracket in blocks:
        tied = statistic_value(model_tag, visibility, bracket, out=bracket) == stat
        if tied.any():
            firsts.append(int(np.min((j * n + k)[tied])))
    return min(firsts, default=None)


def angle_scan(model_tag: BellModel, visibility: float,
               grid_step: float) -> list[tuple[AngleSet, float]]:
    """Exhaustive grid scan of the realizable cosine-argument tuples.

    The four arguments are differences of four detector phases, so only three
    are free: t4 = t2 + t3 - t1.  The scan walks the first three over
    [0, 2pi) and returns the extremal entries
    [(angles_at_max, max), (angles_at_min, min)]; ties go to the first grid
    point in (t1, t2, t3) order.  It independently confirms that the
    canonical tuples are extremal: over realizable tuples the bracket never
    exceeds 2*sqrt(2) in magnitude.

    The result is that of evaluating the statistic at all n^3 points for n
    points per argument, each bracket taken as
    ((cos t1 - cos t2) + cos t3) + cos(t2 + t3 - t1), to the bit, but
    after one pass over the n^2 pairs [t2, t3] that sorts them into classes
    the work is n x U for the U distinct floats s_u of t2 + t3 (1 145
    against n^2 = 98 596 at n = 314).  Every pair with sum s_u has the same
    cos t4 in a t1 slab, so the bracket of the class is bounded, up to
    rounding, by cos t1 + (the class's extreme of cos t3 - cos t2) + cos t4.
    Only the classes whose bound reaches the best one, within a rounding
    slack and the statistic's tie width, are evaluated in full, in the
    operation order above.  Two facts make that exact:

    - ``statistic_value`` is monotone non-decreasing in the bracket for
      0 <= V <= 1 (each rounded operation is), so the extreme statistic is
      that of the extreme bracket B*, and a point ties with it only if its
      bracket lies within w of B*, where w doubles from 1e-15 while
      f(B* -+ w) == f(B*).  At V = 0 the statistic is flat, w grows past
      the bracket range and every point is a candidate.
    - ``np.cos`` of a value does not depend on the value's position in the
      array, so cos(s_u - t1) is the cosine the full scan takes at every
      pair of the class.

    The classes are built one block of anti-diagonals j + k = d at a time:
    sums on different anti-diagonals are about h apart, so no class spans
    two and no n x n table is held.
    """
    if grid_step <= 0:
        raise ValueError(f"grid_step must be > 0, got {grid_step}")
    visibility = _check_visibility(visibility)
    points = 2.0 * math.pi / grid_step   # inf for a subnormal step
    n = round(points) if math.isfinite(points) else points
    if not 1 <= n <= MAX_SCAN_POINTS:
        raise ValueError(f"grid_step {grid_step} gives {n:.16g} points per argument; "
                         f"between 1 and {MAX_SCAN_POINTS} are supported")
    import numpy as np

    grid = np.arange(n) * grid_step
    cos = np.cos(grid)
    sums, extremes, diag = _sum_classes(grid, cos)
    slab_bounds = np.empty((2, n))    # per side, per t1: the largest class bound
    per = max(1, _BLOCK // len(sums))
    for a in range(0, n, per):
        bounds = _class_bounds(cos[a:a + per, None], grid[a:a + per, None], sums, extremes)
        np.max(bounds, axis=-1, out=slab_bounds[:, a:a + per])

    def members(row: int, i: int, floor: float):
        # blocks (j, k, bracket) of the t1 slab i's classes whose bound reaches floor
        bound = _class_bounds(cos[i], grid[i], sums, extremes)[row]
        return _class_members(grid, cos, i, sums, diag, np.flatnonzero(bound >= floor))

    out = []
    for row, side in enumerate((1.0, -1.0)):
        # the extreme bracket B*: it lies within _SLACK of its class's bound,
        # which lies within _SLACK of the best bound
        floor = slab_bounds[row].max() - 2 * _SLACK
        best = side * max(float(np.max(side * bracket))
                          for i in np.flatnonzero(slab_bounds[row] >= floor)
                          for _, _, bracket in members(row, i, floor))
        stat = statistic_value(model_tag, visibility, best)
        width = 1e-15
        while width < 4 * BRACKET_MAX and \
                statistic_value(model_tag, visibility, best - side * width) == stat:
            width *= 2.0
        # every tie lies beyond B* -+ width; the first slab holding one wins
        floor = side * best - width - _SLACK
        for i in np.flatnonzero(slab_bounds[row] >= floor):
            flat = _first_tie(n, members(row, i, floor), model_tag, visibility, stat)
            if flat is not None:
                break
        j, k = divmod(flat, n)
        angles = AngleSet(float(grid[i]), float(grid[j]), float(grid[k]),
                          float((grid[j] + grid[k] - grid[i]) % (2.0 * math.pi)))
        out.append((angles, stat))
    return out


def detector_phases(angles: AngleSet) -> tuple[float, float, float, float]:
    """One detector-phase realization (d1, d1', d2, d2') of an argument tuple.

    Signed arguments must satisfy t1 - t2 - t3 + t4 = 0; since only cosines
    enter, each argument may be negated freely and shifted by 2pi.  The search
    over sign choices and one winding number finds a consistent assignment
    with d1 = 0 (the overall gauge is free).  A sign choice whose residual
    or realized phases overflow the float range realizes nothing.
    """
    t1, t2, t3, t4 = angles.arguments
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            for s3 in (1.0, -1.0):
                for s4 in (1.0, -1.0):
                    residual = s1 * t1 - s2 * t2 - s3 * t3 + s4 * t4
                    if not math.isfinite(residual):
                        continue
                    k = round(residual / (2.0 * math.pi))
                    if abs(residual - 2.0 * math.pi * k) > PHASE_TOL:
                        continue
                    d1 = 0.0
                    d2 = -s1 * t1
                    d2p = -s2 * t2
                    d1p = s3 * t3 + d2
                    realized = (d1 - d2, d1 - d2p, d1p - d2, d1p - d2p)
                    if all(math.isfinite(r) and abs(math.cos(r) - math.cos(t)) <= PHASE_TOL
                           for r, t in zip(realized, angles.arguments)):
                        return (d1, d1p, d2, d2p)
    raise ValueError(f"no consistent detector realization for arguments {angles.arguments}")
