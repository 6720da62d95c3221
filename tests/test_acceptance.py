"""Acceptance suite: one test per criterion, tolerances pinned.

The Monte Carlo criteria run on two frame stacks generated once per session
(the configs below, seeds included, are the reproduction recipe):

    tau01: 100k frames at tau_i/tau_c = 0.01  (visibility law, m = 1..6)
    tau06: 200k frames at tau_i/tau_c = 0.06  (the experiment's 3ms/50ms;
           visibility bracket and the frame-level Bell violation)

Both use the desk-scale geometry: 128 x 8 px grid, 8 um pitch, fringe period
99.75 px, scan span 1.27 periods.  Run with ``pytest tests/test_acceptance.py -v``
for the per-criterion pass/fail lines.
"""

import csv
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from thermalbell import analytic, bell, cli, fock, permanents, spkl
from thermalbell.analytic import ALL_PAIRS, CROSS_PAIRS
from thermalbell.sources import tls
from thermalbell.speckle import Geometry, generate_frames

GEOMETRY_ARGS = ["--pixel-pitch", "8e-6", "--grid-width", "128", "--grid-height", "8"]
TAU01 = dict(frames=100_000, tau_ratio=0.01, seed=20260809)
TAU06 = dict(frames=200_000, tau_ratio=0.06, seed=20260811)


@pytest.fixture(scope="session")
def datasets(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    started = time.monotonic()
    paths = {}
    for name, spec in (("tau01", TAU01), ("tau06", TAU06)):
        path = root / f"{name}.spkl"
        code = cli.main([
            "simulate", "--frames", str(spec["frames"]),
            "--tau-ratio", str(spec["tau_ratio"]), "--substeps", "8",
            "--subsources", "64", "--seed", str(spec["seed"]),
            *GEOMETRY_ARGS, "--out", str(path)])
        assert code == 0
        paths[name] = path
    return {"paths": paths, "root": root,
            "generation_seconds": time.monotonic() - started}


def test_criterion_1_visibility_law(tmp_path):
    """analytic CLI emits V(m) = m/(m+2) for m+1 = 2..9 exactly, in < 1 s."""
    out = tmp_path / "vis.csv"
    started = time.monotonic()
    subprocess.run([sys.executable, "-m", "thermalbell.cli", "analytic",
                    "--m", "1..8", "--curve", "visibility", "--out", str(out)],
                   check=True)
    elapsed = time.monotonic() - started
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    expected = [Fraction(m, m + 2) for m in range(1, 9)]
    got = [Fraction(row["visibility_exact_fraction"]) for row in rows]
    assert got == expected
    assert [int(r["m"]) for r in rows] == list(range(1, 9))
    assert elapsed < 1.0, f"analytic took {elapsed:.2f}s (budget 1s)"
    print(f"criterion 1 PASS: exact m/(m+2) for m=1..8 in {elapsed:.2f}s")


def test_criterion_2_oracle_equivalence():
    """Permanent oracle == closed form within 1e-10 over m = 1..8, 64 deltas."""
    started = time.monotonic()
    model = tls(1.0, 1.0)
    worst = 0.0
    for m in range(1, 9):
        for delta in np.linspace(-math.pi, math.pi, 64):
            oracle = permanents.gm1_from_permanent(m, float(delta), 0.0, model)
            closed = analytic.gm1_tls_normalized(m, float(delta), 0.0)
            worst = max(worst, abs(oracle.normalized - closed) / closed)
    elapsed = time.monotonic() - started
    assert worst <= 1e-10, f"worst relative deviation {worst:.2e}"
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s (budget 10s)"
    print(f"criterion 2 PASS: worst rel dev {worst:.2e} in {elapsed:.1f}s")


def test_criterion_3_fock_equivalence():
    """Truncated Fock engine reproduces the closed forms and C(m) = m/(m+2)."""
    started = time.monotonic()
    nbar_ref = 0.2
    state = fock.thermal_state(nbar_ref, fock.suggest_dim(nbar_ref, 5))
    model = tls(nbar_ref)
    worst_gm1 = 0.0
    for m in range(1, 5):
        for delta in np.linspace(0.0, math.pi, 7):
            got = fock.expect_gm1(state, m, float(delta), 0.0)
            want = analytic.gm1_tls_set(m, float(delta), 0.0, model).values[
                analytic.PAIR_DD]
            worst_gm1 = max(worst_gm1, abs(got - want) / want)
    assert worst_gm1 <= 1e-6, f"worst gm1 relative deviation {worst_gm1:.2e}"

    worst_c = 0.0
    for m in range(1, 5):
        for nbar in (0.05, 0.2):
            for delta1 in (0.0, 1.3):
                c = abs(fock.cm_coefficient(nbar, m, delta1))
                worst_c = max(worst_c, abs(c - m / (m + 2)))
    elapsed = time.monotonic() - started
    assert worst_c <= 1e-8, f"worst C(m) deviation {worst_c:.2e}"
    assert elapsed < 60.0, f"fock checks took {elapsed:.1f}s (budget 60s)"
    print(f"criterion 3 PASS: gm1 dev {worst_gm1:.2e}, C(m) dev {worst_c:.2e} "
          f"in {elapsed:.1f}s")


def test_criterion_4_bell_thresholds_and_minimal_m():
    """Thresholds 2/(1+sqrt2), 1/sqrt2 to 1e-12; minimal m = 5; m=5 statistic."""
    six_upper = bell.threshold_visibility(bell.BellModel.SIX_TERM_TLS, bell.Bound.UPPER)
    six_lower = bell.threshold_visibility(bell.BellModel.SIX_TERM_TLS, bell.Bound.LOWER)
    assert abs(six_upper - 2 / (1 + math.sqrt(2))) <= 1e-12
    assert abs(six_lower - 1 / math.sqrt(2)) <= 1e-12
    assert bell.min_violating_m() == 5
    report = bell.bell_statistic(bell.BellModel.FOUR_TERM_TLS, 5 / 7,
                                 bell.default_angles(bell.Bound.UPPER))
    exact = (5 / 28) * 2 * math.sqrt(2) - 0.5
    assert abs(report.statistic - exact) <= 1e-12
    assert report.statistic > 0 and report.violates_upper
    print(f"criterion 4 PASS: thresholds exact, min m = 5, "
          f"m=5 statistic = +{report.statistic:.7f}")


def _fitted_visibilities(path, m_range, out_stem):
    code = cli.main(["correlate", "--frames", str(path), "--m", m_range,
                     "--boot", "200", "--out", str(out_stem)])
    assert code == 0
    with (out_stem.parent / f"{out_stem.name}_visibility.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    return {int(r["m"]): float(r["v_hat_dimensionless"]) for r in rows}


def test_criterion_5_monte_carlo_visibility(datasets):
    """V_hat within 0.03 of m/(m+2) for m=1..6 at tau 0.01; V_hat(6) in
    [0.70, 0.78] at tau 0.06 (the experiment reported 0.743 +- 0.027)."""
    started = time.monotonic()
    vhat = _fitted_visibilities(datasets["paths"]["tau01"], "1..6",
                                datasets["root"] / "c5_tau01")
    devs = {m: abs(vhat[m] - m / (m + 2)) for m in range(1, 7)}
    assert all(dev <= 0.03 for dev in devs.values()), f"deviations {devs}"

    vhat06 = _fitted_visibilities(datasets["paths"]["tau06"], "6",
                                  datasets["root"] / "c5_tau06")
    assert 0.70 <= vhat06[6] <= 0.78, f"V_hat(6) at tau 0.06 = {vhat06[6]}"

    elapsed = time.monotonic() - started + datasets["generation_seconds"]
    assert elapsed < 600.0, f"criterion 5 took {elapsed:.0f}s (budget 600s)"
    print(f"criterion 5 PASS: max dev {max(devs.values()):.4f} (tau 0.01), "
          f"V_hat(6) = {vhat06[6]:.4f} at tau 0.06, {elapsed:.0f}s incl. generation")


def _bell_report(path, out_stem, m, extra=()):
    code = cli.main(["correlate", "--frames", str(path), "--m", str(m), "--bell",
                     "--realizations", "6", "--boot", "200", *extra,
                     "--out", str(out_stem)])
    assert code == 0
    payload = json.loads((out_stem.parent / f"{out_stem.name}_report.json").read_text())
    return payload["bell"]


def test_criterion_6_frame_level_bell(datasets):
    """Upper-bound violation at >= 2 stderr for m=6; no violation for the m=4
    and shuffled-frame controls."""
    tau06 = datasets["paths"]["tau06"]
    root = datasets["root"]

    violation = _bell_report(tau06, root / "c6_m6", 6)
    assert violation["statistic"] - 2 * violation["stderr"] > 0
    assert violation["violates_upper"] is True

    control_m4 = _bell_report(tau06, root / "c6_m4", 4)
    assert control_m4["violates_upper"] is False
    assert control_m4["violates_lower"] is False

    shuffled = _bell_report(tau06, root / "c6_shuf", 6, extra=["--shuffle"])
    assert abs(shuffled["statistic"] + 0.5) <= 3 * shuffled["stderr"]
    assert shuffled["violates_upper"] is False
    print(f"criterion 6 PASS: m=6 statistic {violation['statistic']:.4f} "
          f"+- {violation['stderr']:.4f} "
          f"({violation['statistic'] / violation['stderr']:.1f} sigma); "
          f"m=4 control {control_m4['statistic']:.4f}; "
          f"shuffled {shuffled['statistic']:.4f}")


def test_criterion_7_property_suites(tmp_path):
    """Probability normalization over 1000 random draws; phase-shift and
    scale invariance; SPKL round-trip byte equality; seeded determinism."""
    rng = np.random.default_rng(1234)
    model = tls(1.0, 1.0)
    for _ in range(1000):
        vis = float(rng.uniform(0.0, 1.0))
        delta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        six = analytic.probabilities_six(analytic.g2_tls_set(delta, 0.0, model, vis))
        four = analytic.probabilities_four(
            analytic.gm1_tls_set(3, delta, 0.0, model, vis_override=vis))
        assert all(six.joint[p] >= 0 for p in ALL_PAIRS)
        assert all(four.joint[p] >= 0 for p in CROSS_PAIRS)
        assert abs(math.fsum(six.joint.values()) - 1.0) <= 1e-12
        assert abs(math.fsum(four.joint.values()) - 1.0) <= 1e-12
        assert six.marginal_1 == 0.5 and six.marginal_2 == 0.5
        assert four.marginal_1 == 0.5 and four.marginal_2 == 0.5

    # phase-shift invariance, exact on a dyadic grid
    for _ in range(200):
        d1, d2, shift = (int(rng.integers(-64, 65)) / 16.0 for _ in range(3))
        m = int(rng.integers(1, 9))
        assert analytic.gm1_tls_set(m, d1, d2, model).values == \
            analytic.gm1_tls_set(m, d1 + shift, d2 + shift, model).values

    # estimator scale invariance (exact for power-of-two factors) and
    # generation determinism
    from thermalbell.correlate import estimate_gm1
    geom = Geometry(pixel_pitch=8e-6, width=128, height=8)
    frames_a = generate_frames(geom, model, 400, 0.01, substeps=2, seed=99)
    frames_b = generate_frames(geom, model, 400, 0.01, substeps=2, seed=99)
    assert np.array_equal(frames_a.pixels, frames_b.pixels)
    base = estimate_gm1(frames_a, 2, 63, [0, 1], range(128), 7, n_boot=50)
    scaled = estimate_gm1(frames_a.scaled(4.0), 2, 63, [0, 1], range(128), 7,
                          n_boot=50)
    assert np.array_equal(base.values, scaled.values)

    # SPKL round trip, byte equality
    first = tmp_path / "a.spkl"
    second = tmp_path / "b.spkl"
    spkl.write_spkl(first, frames_a)
    header, pixels = spkl.read_spkl(first)
    from thermalbell.speckle import FrameSet
    spkl.write_spkl(second, FrameSet(pixels, geom, header.seed, header.tau_ratio,
                                     2, 64))
    assert first.read_bytes() == second.read_bytes()
    print("criterion 7 PASS: probabilities, invariances, SPKL round trip, "
          "determinism")
