"""CH74 Bell-statistic evaluation for the probability sets of this toolkit.

The inequality used is the probability form
    -1 <= P(a,b) - P(a,b') + P(a',b) + P(a',b') - P1(a') - P1(b) <= 0,
evaluated with the joint probabilities carrying a fringe
(1 +- V cos(argument))/N.  Canonical extremal angle choices drive the
four-cosine bracket to +-2*sqrt(2).

``ch74`` states the middle expression once, for scalars and arrays; the
frame estimator in ``correlate`` evaluates it too.  ``statistic_value`` is
its closed form for a fringe of visibility V and a given cosine bracket.

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

# Grid points per argument of ``angle_scan``, which holds three n x n arrays
# (the intp index of t2 + t3 into its distinct sums, two float64 buffers):
# a 102 MB peak under tracemalloc at the maximum.
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


def angle_scan(model_tag: BellModel, visibility: float,
               grid_step: float) -> list[tuple[AngleSet, float]]:
    """Exhaustive grid scan of the realizable cosine-argument tuples.

    The four arguments are differences of four detector phases, so only three
    are free: t4 = t2 + t3 - t1.  The scan walks the first three over
    [0, 2pi), one [t2, t3] slab per t1, and returns the extremal entries
    [(angles_at_max, max), (angles_at_min, min)]; ties go to the first grid
    point in (t1, t2, t3) order.  It independently confirms that the
    canonical tuples are extremal: over realizable tuples the bracket never
    exceeds 2*sqrt(2) in magnitude.

    The scan evaluates the statistic at n^3 points for n points per
    argument, but takes only n x (distinct values of t2 + t3) cosines:
    the n^2 sums hold few distinct floats (1 145 at n = 314), so each slab
    takes cos(t2 + t3 - t1) once per distinct sum and gathers it by index.
    Every cosine gets the argument it would get in full, so the result is
    the same to the bit.
    """
    if grid_step <= 0:
        raise ValueError(f"grid_step must be > 0, got {grid_step}")
    visibility = _check_visibility(visibility)
    n = int(round(2.0 * math.pi / grid_step))
    if not 1 <= n <= MAX_SCAN_POINTS:
        raise ValueError(f"grid_step {grid_step} gives {n} points per argument; "
                         f"between 1 and {MAX_SCAN_POINTS} are supported")
    import numpy as np

    grid = np.arange(n) * grid_step
    cos = np.cos(grid)
    pair = grid[:, None] + grid[None, :]
    sums = np.unique(pair)
    where = np.searchsorted(sums, pair)     # pair == sums[where], exactly
    del pair
    bracket, cos_t4 = np.empty((n, n)), np.empty((n, n))   # reused by every slab
    flats = np.empty((n, 2), dtype=np.intp)   # per t1: flat [t2, t3] index of max, min
    stats = np.empty((n, 2))
    for i in range(n):
        np.take(np.cos(sums - grid[i]), where, out=cos_t4, mode="clip")
        np.add((cos[i] - cos)[:, None], cos, out=bracket)
        bracket += cos_t4
        stat = statistic_value(model_tag, visibility, bracket, out=bracket)
        flats[i] = np.argmax(stat), np.argmin(stat)
        stats[i] = stat.flat[flats[i]]
    out = []
    for col, i in enumerate((np.argmax(stats[:, 0]), np.argmin(stats[:, 1]))):
        j, k = np.unravel_index(flats[i, col], where.shape)
        angles = AngleSet(float(grid[i]), float(grid[j]), float(grid[k]),
                          float((sums[where[j, k]] - grid[i]) % (2.0 * math.pi)))
        out.append((angles, float(stats[i, col])))
    return out


def detector_phases(angles: AngleSet) -> tuple[float, float, float, float]:
    """One detector-phase realization (d1, d1', d2, d2') of an argument tuple.

    Signed arguments must satisfy t1 - t2 - t3 + t4 = 0; since only cosines
    enter, each argument may be negated freely and shifted by 2pi.  The search
    over sign choices and one winding number finds a consistent assignment
    with d1 = 0 (the overall gauge is free).
    """
    t1, t2, t3, t4 = angles.arguments
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            for s3 in (1.0, -1.0):
                for s4 in (1.0, -1.0):
                    residual = s1 * t1 - s2 * t2 - s3 * t3 + s4 * t4
                    k = round(residual / (2.0 * math.pi))
                    if abs(residual - 2.0 * math.pi * k) > PHASE_TOL:
                        continue
                    d1 = 0.0
                    d2 = -s1 * t1
                    d2p = -s2 * t2
                    d1p = s3 * t3 + d2
                    realized = (d1 - d2, d1 - d2p, d1p - d2, d1p - d2p)
                    if all(abs(math.cos(r) - math.cos(t)) <= PHASE_TOL
                           for r, t in zip(realized, angles.arguments)):
                        return (d1, d1p, d2, d2p)
    raise ValueError(f"no consistent detector realization for arguments {angles.arguments}")
