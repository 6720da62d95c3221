"""Library sweep of the permanent oracle at m = 14 and 15 (sizes 15 and 16).

Run as a script, it performs every call of the sweep and prints one JSON
line per call.  Each call is one benchmark operation.  A call fails when
``permanents.gm1_from_permanent`` raises ``ArithmeticError`` or returns a
value more than 1e-9 (relative) away from the integer closed form: both are
the precision loss of the complex128 Ryser sum at these sizes.  The phase
grid is fixed, so the failed count is the same on every run.
"""

from __future__ import annotations

import json
import math
import sys
import time
import numpy as np

from checks import ORACLE_REL_TOL, oracle_rel_dev

SWEEP_M = (14, 15)
SWEEP_PHASES = 8


def sweep_calls() -> list[tuple[int, float]]:
    phases = np.linspace(-math.pi, math.pi, SWEEP_PHASES)
    return [(m, float(d)) for m in SWEEP_M for d in phases]


def run_call(m: int, delta: float) -> dict:
    """One oracle call, classified as ok or failed."""
    from thermalbell import permanents
    from thermalbell.sources import tls

    started = time.perf_counter()
    try:
        result = permanents.gm1_from_permanent(m, delta, 0.0, tls(1.0, 1.0))
    except ArithmeticError as exc:
        status, detail = "failed", f"ArithmeticError: {exc}"
    else:
        dev = oracle_rel_dev(m, delta, result.normalized)
        status = "ok" if dev <= ORACLE_REL_TOL else "failed"
        detail = f"relative deviation {dev:.3e}"
    return {"m": m, "delta": delta, "status": status, "detail": detail,
            "seconds": time.perf_counter() - started}


def main() -> int:
    for m, delta in sweep_calls():
        print(json.dumps(run_call(m, delta)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
