#!/usr/bin/env python3
"""Synthetic reproduction of the visibility-vs-order experiment.

Generates a pseudothermal double-slit frame stack in a temporary directory,
fits the (m+1)-th order correlation fringe of each m there in process
(``correlate.analyze``), and prints the visibilities against the m/(m+2)
law; with --bell, also the CH74 statistic from the frames at the largest m.

Desk-scale defaults finish in about 2 s on 2 CPUs; pass --frames 100000
(and --tau-ratio 0.01) for acceptance-scale statistics.
"""

import argparse
import sys
import tempfile
from pathlib import Path

from thermalbell import analytic, cli, correlate, errors, spkl
from thermalbell.config import CorrelateConfig


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=30_000)
    parser.add_argument("--tau-ratio", type=float, default=0.06)
    parser.add_argument("--m-max", type=int, default=6)
    parser.add_argument("--seed", type=int, default=20260811)
    parser.add_argument("--bell", action="store_true",
                        help="also test the CH74 upper bound at the largest m")
    args = parser.parse_args()

    print(f"# generating {args.frames} frames, tau_i/tau_c = {args.tau_ratio}, seed {args.seed}")
    with tempfile.TemporaryDirectory(prefix="thermalbell_") as workdir:
        stack = Path(workdir) / "frames.spkl"
        code = cli.main([
            "simulate", "--frames", str(args.frames), "--tau-ratio", str(args.tau_ratio),
            "--substeps", "8", "--subsources", "64", "--seed", str(args.seed), "--pixel-pitch",
            "8e-6", "--grid-width", "128", "--grid-height", "8", "--out", str(stack)])
        if code != 0:
            return code
        geom, _ = spkl.read_geometry(stack, spkl.read_header(stack))
        try:
            result = correlate.analyze(
                CorrelateConfig(m_range=f"1..{args.m_max}", bell=args.bell), stack, geom)
        except (ValueError, errors.NumericGuardError) as exc:
            parser.error(str(exc))

    print("\n#  m   V_theory   V_hat      stderr")
    for curve, fit in zip(result.curves, result.fits):
        print(f"  {curve.m:2d}   {analytic.visibility_tls(curve.m):.4f}"
              f"     {fit.value:.4f}     {fit.stderr:.4f}")
    if (report := result.bell) is not None:
        sigma = report.statistic / report.stderr if report.stderr else 0.0
        print(f"\n# CH74 upper bound at m = {report.m}: statistic "
              f"{report.statistic:+.5f} +- {report.stderr:.5f} ({sigma:.1f} sigma above 0)"
              f" -> {'VIOLATED' if report.violates_upper else 'not violated'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
