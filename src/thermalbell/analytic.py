"""Closed-form intensity correlation functions for two independent sources.

Second-order correlations for single-photon emitters and thermal sources,
their (m+1)-th order generalization for thermal sources (m detectors at one
phase, one detector at another), and the conversion of correlation sets into
normalized joint/marginal detection probabilities.

Phases are plain floats in radians and are never reduced mod 2pi here; only
phase differences enter the formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .sources import COHERENT_MAX_VISIBILITY, SourceKind, SourceModel

if TYPE_CHECKING:
    from fractions import Fraction

# Setting-pair labels.  d1/d2 are the two freely placed detector phases,
# p1/p2 the pi-shifted partners (p_j = d_j + pi).
PAIR_DD = "d1d2"
PAIR_PP = "p1p2"
PAIR_DP = "d1p2"
PAIR_PD = "p1d2"
PAIR_D1P1 = "d1p1"
PAIR_D2P2 = "d2p2"

CROSS_PAIRS = (PAIR_DD, PAIR_PP, PAIR_DP, PAIR_PD)
SAME_SIDE_PAIRS = (PAIR_D1P1, PAIR_D2P2)
ALL_PAIRS = CROSS_PAIRS + SAME_SIDE_PAIRS


@dataclass
class CorrelationSet:
    """Correlation values of one (m+1)-th order measurement at four (or six)
    detector-setting pairs, with the common amplitude and fringe visibility
    factored out."""

    order: int                       # correlation order, m + 1
    values: dict[str, float] = field(default_factory=dict)
    visibility: float = 0.0
    amplitude: float = 1.0

    def __post_init__(self):
        if self.order < 2:
            raise ValueError(f"correlation order must be >= 2, got {self.order}")
        for key, value in self.values.items():
            if key not in ALL_PAIRS:
                raise ValueError(f"unknown setting-pair label {key!r}")
            if value < 0:
                raise ValueError(f"negative correlation value for {key}: {value}")


@dataclass
class ProbabilitySet:
    """Joint detection probabilities over the included setting pairs plus the
    two single-detector marginals."""

    joint: dict[str, float]
    marginal_1: float
    marginal_2: float
    normalization: float


def _check_visibility(vis: float) -> float:
    if not 0.0 <= vis <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {vis}")
    return float(vis)


def g1(model: SourceModel, delta: float = 0.0) -> float:
    """First-order correlation at one detector; independent of the phase.

    Two incoherent point sources radiate isotropically, so this is constant:
    2*E0^2*<n> for thermal or coherent pairs and 2*E0^2 for SPE pairs.
    """
    e2 = model.field_amp**2
    if model.kind is SourceKind.SPE:
        return 2.0 * e2
    return 2.0 * e2 * model.mean_photons


def max_g2_visibility(model: SourceModel) -> float:
    """Largest second-order fringe visibility the source pair can reach.

    1 for SPE pairs, 1/2 for independent coherent sources, 1/3 for thermal
    sources; the classical values sit below both six-term Bell thresholds,
    which is why second-order correlations of classical light cannot violate
    the inequalities and higher orders are needed.
    """
    if model.kind is SourceKind.SPE:
        return 1.0
    if model.kind is SourceKind.COHERENT:
        return COHERENT_MAX_VISIBILITY
    return visibility_tls(1)


def visibility_tls_exact(m: int) -> Fraction:
    """Fringe visibility m/(m+2) of the (m+1)-th order thermal correlation,
    as an exact rational."""
    from fractions import Fraction      # the float routes do not load it

    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return Fraction(m, m + 2)


def visibility_tls(m: int) -> float:
    """m/(m+2) rounded once: int true division is correctly rounded, so
    this is ``float(visibility_tls_exact(m))`` bit for bit."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return m / (m + 2)


def normalized_amplitude(m: int) -> float:
    """Midline of the g1-normalized (m+1)-th order correlation,
    (m+2)!/(2(m+1)), rounded once from the exact integers."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return math.factorial(m + 2) / (2 * (m + 1))


def gm1_tls_normalized(m: int, delta1: float, delta2: float,
                       vis_override: float | None = None) -> float:
    """g1-normalized (m+1)-th order correlation of two thermal sources."""
    vis = visibility_tls(m) if vis_override is None else _check_visibility(vis_override)
    return normalized_amplitude(m) * (1.0 + vis * math.cos(delta1 - delta2))


def gm1_tls_set(m: int, delta1: float, delta2: float, model: SourceModel,
                vis_override: float | None = None) -> CorrelationSet:
    """(m+1)-th order correlation values of two thermal sources at the four
    cross setting pairs (m detectors at one side, one at the other).

    The common amplitude is (m+2)!/(m+1) * 2^m * E0^(2(m+1)) * <n>^(m+1),
    its integer prefactor rounded once to a float.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    vis = visibility_tls(m) if vis_override is None else _check_visibility(vis_override)
    amplitude = float(math.factorial(m + 2) // (m + 1) * 2**m) \
        * model.field_amp ** (2 * (m + 1)) * model.mean_photons ** (m + 1)

    cos_term = vis * math.cos(delta1 - delta2)
    plus = amplitude * (1.0 + cos_term)
    minus = amplitude * (1.0 - cos_term)
    values = {PAIR_DD: plus, PAIR_PP: plus, PAIR_DP: minus, PAIR_PD: minus}
    return CorrelationSet(order=m + 1, values=values, visibility=vis, amplitude=amplitude)


def _six_entry_set(delta1: float, delta2: float, vis: float, scale: float) -> dict[str, float]:
    cos_term = vis * math.cos(delta1 - delta2)
    plus = scale * (1.0 + cos_term)
    minus = scale * (1.0 - cos_term)
    same = scale * (1.0 - vis)
    return {PAIR_DD: plus, PAIR_PP: plus, PAIR_DP: minus, PAIR_PD: minus,
            PAIR_D1P1: same, PAIR_D2P2: same}


def g2_spe_set(delta1: float, delta2: float, vis: float = 1.0,
               field_amp: float = 1.0) -> CorrelationSet:
    """All six second-order correlations of two SPE over the four-detector
    arrangement (two settings plus their pi-shifted partners); ``d1d2`` is
    2*E0^4*(1 + vis*cos(delta1 - delta2)), vis = 1 being the ideal case."""
    vis = _check_visibility(vis)
    scale = 2.0 * field_amp**4
    return CorrelationSet(order=2, values=_six_entry_set(delta1, delta2, vis, scale),
                          visibility=vis, amplitude=scale)


def g2_tls_set(delta1: float, delta2: float, model: SourceModel,
               vis: float | None = None) -> CorrelationSet:
    """All six second-order correlations of two thermal sources; ``d1d2`` is
    6*E0^4*<n>^2*(1 + vis*cos(delta1 - delta2)), vis defaulting to the
    physical thermal value 1/3."""
    vis = visibility_tls(1) if vis is None else _check_visibility(vis)
    scale = 6.0 * model.field_amp**4 * model.mean_photons**2
    return CorrelationSet(order=2, values=_six_entry_set(delta1, delta2, vis, scale),
                          visibility=vis, amplitude=scale)


def _require_pairs(cset: CorrelationSet, pairs: tuple[str, ...]) -> None:
    missing = [p for p in pairs if p not in cset.values]
    if missing:
        raise ValueError(f"correlation set is missing pair values {missing}")
    for p in pairs:
        if cset.values[p] < 0:
            raise ValueError(f"negative correlation value for {p}")


def probabilities_six(cset: CorrelationSet) -> ProbabilitySet:
    """Joint and marginal detection probabilities from all six correlation
    values.

    The normalization is the plain sum of the six values, which makes the
    marginals (3 - V)/(6 - 2V) = 1/2 identically; the closed form is used so
    the stored marginals are exactly one half.
    """
    _require_pairs(cset, ALL_PAIRS)
    norm = math.fsum(cset.values[p] for p in ALL_PAIRS)
    if norm <= 0:
        raise ValueError("six-pair correlation set sums to zero; cannot normalize")
    joint = {p: cset.values[p] / norm for p in ALL_PAIRS}
    vis = cset.visibility
    # the same-side entries are A*(1 - V); a mislabeled visibility would make
    # the closed-form marginal below silently wrong
    amplitude = 0.5 * (cset.values[PAIR_DD] + cset.values[PAIR_DP])
    implied_vis = 1.0 - cset.values[PAIR_D1P1] / amplitude
    if abs(implied_vis - vis) > 1e-9:
        raise ValueError(
            "correlation set is inconsistent with its stored visibility "
            f"(values imply {implied_vis}, stored {vis})")
    marginal = (3.0 - vis) / (6.0 - 2.0 * vis)
    return ProbabilitySet(joint=joint, marginal_1=marginal, marginal_2=marginal,
                          normalization=norm)


def probabilities_four(cset: CorrelationSet) -> ProbabilitySet:
    """Joint and marginal probabilities from the four cross pairs only.

    This encodes the post-selection rule of the (m+1)-photon scheme: only
    events with the full m-fold detection on one side and a single detection
    on the other count; same-side double events are discarded.  The
    normalization is then 4*A and each joint probability (1 +- V cos)/4, with
    marginals exactly one half.
    """
    _require_pairs(cset, CROSS_PAIRS)
    norm = math.fsum(cset.values[p] for p in CROSS_PAIRS)
    if norm <= 0:
        raise ValueError("four-pair correlation set sums to zero; cannot normalize")
    joint = {p: cset.values[p] / norm for p in CROSS_PAIRS}
    return ProbabilitySet(joint=joint, marginal_1=0.5, marginal_2=0.5,
                          normalization=norm)
