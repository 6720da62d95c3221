"""Higher-order photon correlations of two independent thermal sources.

Closed-form correlation functions and CH74 Bell statistics, exact two-mode
Fock-space checks, a permanent-based Gaussian-moment oracle, a synthetic
pseudothermal double-slit experiment, and frame-ensemble estimators that
reproduce the m/(m+2) visibility law and its Bell violation for m >= 5
(m >= 6 under experiment-like imperfections).

The API is the modules (``from thermalbell import correlate``); ``import
thermalbell`` loads none of them and no numpy, so the light closed-form
paths do not pay for the simulation stack.  ``analytic`` is pure Python,
``bell`` and ``spkl`` load numpy only where they touch arrays, and so the
commands ``bell`` without ``--scan-step`` and ``analytic --curve
visibility`` run without numpy, with or without ``--out``.  The package
needs only numpy.
"""

__version__ = "0.1.0"
