"""Higher-order photon correlations of two independent thermal sources.

Closed-form correlation functions and CH74 Bell statistics, exact two-mode
Fock-space checks, a permanent-based Gaussian-moment oracle, a synthetic
pseudothermal double-slit experiment, and frame-ensemble estimators that
reproduce the m/(m+2) visibility law and its Bell violation for m >= 5
(m >= 6 under experiment-like imperfections).

Submodules are imported lazily so the light closed-form paths do not pay for
the simulation stack.  The package needs only numpy.
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    "analytic": [
        "CorrelationSet", "ProbabilitySet", "g1", "g2_spe", "g2_spe_set",
        "g2_tls", "g2_tls_set", "gm1_tls_normalized", "gm1_tls_set",
        "max_g2_visibility", "probabilities_four", "probabilities_six",
        "visibility_tls", "visibility_tls_exact",
    ],
    "bell": [
        "AngleSet", "BellModel", "BellReport", "Bound", "angle_scan",
        "bell_statistic", "ch74_middle", "default_angles", "detector_phases",
        "min_violating_m", "threshold_visibility",
    ],
    "correlate": [
        "CorrelationCurve", "FrameBellReport", "VisibilityEstimate",
        "bell_from_frames", "estimate_gm1", "fit_visibility",
    ],
    "fock": [
        "TwoModeState", "cm_coefficient", "cross_corr", "expect_gm1",
        "project_m", "spe_state", "suggest_dim", "thermal_state",
    ],
    "permanents": [
        "PermanentCorrelation", "coherence_matrix", "gm1_from_permanent",
        "permanent",
    ],
    "sources": ["SourceKind", "SourceModel", "coherent", "spe", "tls"],
    "speckle": ["FrameSet", "Geometry", "generate_frames", "photonize"],
}

_ATTR_TO_MODULE = {name: module for module, names in _EXPORTS.items()
                   for name in names}

__all__ = sorted(_ATTR_TO_MODULE) + sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _ATTR_TO_MODULE:
        module = importlib.import_module(f".{_ATTR_TO_MODULE[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    if name in _EXPORTS:
        module = importlib.import_module(f".{name}", __name__)
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__
