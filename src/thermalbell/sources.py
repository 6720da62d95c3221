"""Emitter-pair models: thermal, single-photon, and coherent sources."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class SourceKind(str, enum.Enum):
    SPE = "spe"
    TLS = "tls"
    COHERENT = "coherent"


# Largest fringe visibility of the second-order correlation attainable with
# two statistically independent classical sources (coherent case); thermal
# sources reach only 1/3, analytic.visibility_tls(1).  Used as a bound check,
# no coherent closed forms beyond second order are implemented.
COHERENT_MAX_VISIBILITY = 0.5


@dataclass(frozen=True)
class SourceModel:
    """A pair of identical, statistically independent point sources.

    ``mean_photons`` is the mean photon number per source and is ignored for
    single-photon emitters (each SPE contributes exactly one photon).
    ``field_amp`` is the per-detector field amplitude scale (arbitrary units).
    """

    kind: SourceKind
    mean_photons: float = 1.0
    field_amp: float = 1.0

    def __post_init__(self):
        if self.field_amp <= 0:
            raise ValueError(f"field_amp must be > 0, got {self.field_amp}")
        if self.mean_photons < 0:
            raise ValueError(f"mean_photons must be >= 0, got {self.mean_photons}")


def tls(mean_photons: float = 1.0, field_amp: float = 1.0) -> SourceModel:
    return SourceModel(SourceKind.TLS, mean_photons, field_amp)


def spe(field_amp: float = 1.0) -> SourceModel:
    return SourceModel(SourceKind.SPE, 1.0, field_amp)


def coherent(mean_photons: float = 1.0, field_amp: float = 1.0) -> SourceModel:
    return SourceModel(SourceKind.COHERENT, mean_photons, field_amp)
