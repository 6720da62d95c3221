import csv
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import time
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from thermalbell import bell, cli, correlate, speckle, spkl
from thermalbell.config import CorrelateConfig
from thermalbell.correlate import (CorrelationCurve, bell_from_frames,
                                   estimate_gm1, fit_visibility)
from thermalbell.errors import (InsufficientFramesError, NumericGuardError,
                                PeriodCoverageError, SamplingGuardError)
from thermalbell.speckle import FrameSet, Geometry, photonize

FULL_SCAN = range(128)


def _constant_frames(value=2.5, n=500, h=4, w=32):
    return FrameSet(np.full((n, h, w), value, np.float32), None, 0, 0.0, 1, 1)


class TestEstimator:
    def test_constant_frames_give_unity(self):
        curve = estimate_gm1(_constant_frames(), 2, 5, [0, 1], range(32), 3)
        assert np.allclose(curve.values, 1.0, atol=1e-12)
        assert np.allclose(curve.stderr, 0.0, atol=1e-15)

    def test_m1_visibility_near_third(self, frames_20k, desk_geom):
        curve = estimate_gm1(frames_20k, 1, 63, [0], FULL_SCAN, 7)
        est = fit_visibility(curve, desk_geom)
        assert est.value == pytest.approx(1 / 3, abs=0.02)

    def test_m2_visibility(self, frames_20k, desk_geom):
        curve = estimate_gm1(frames_20k, 2, 63, [0, 1], FULL_SCAN, 7)
        est = fit_visibility(curve, desk_geom)
        assert est.value == pytest.approx(0.5, abs=0.05)

    def test_m1_curve_matches_normalized_form(self, frames_20k, desk_geom):
        """ghat(delta) tracks 1.5 * (1 + cos(delta)/3) pointwise."""
        curve = estimate_gm1(frames_20k, 1, 63, [0], FULL_SCAN, 7)
        delta = desk_geom.phase_map()
        theory = 1.5 * (1 + np.cos(delta - delta[63]) / 3)
        assert np.max(np.abs(curve.values - theory) / theory) < 0.03

    def test_values_nonnegative_and_shapes(self, frames_20k):
        curve = estimate_gm1(frames_20k, 3, 63, [0, 1, 2], range(10, 90), 7)
        assert curve.values.shape == curve.stderr.shape == (80,)
        assert np.all(curve.values >= 0)
        assert np.all(curve.stderr >= 0)
        assert curve.n_frames_used == frames_20k.n_frames

    def test_shuffled_frames_flatten_the_curve(self, frames_20k, desk_geom):
        curve = estimate_gm1(frames_20k, 1, 63, [0], FULL_SCAN, 7, shuffle=True)
        est = fit_visibility(curve, desk_geom)
        assert est.value < 0.02
        assert np.allclose(curve.values, 1.0, atol=0.05)

    def test_bootstrap_deterministic(self, frames_tiny):
        a = estimate_gm1(frames_tiny, 1, 63, [0], range(0, 128, 8), 7, boot_seed=9)
        b = estimate_gm1(frames_tiny, 1, 63, [0], range(0, 128, 8), 7, boot_seed=9)
        assert np.array_equal(a.stderr, b.stderr)
        c = estimate_gm1(frames_tiny, 1, 63, [0], range(0, 128, 8), 7, boot_seed=10)
        assert not np.array_equal(a.stderr, c.stderr)


class TestEstimatorInvariances:
    def test_scale_invariance_power_of_two_exact(self, frames_20k):
        base = estimate_gm1(frames_20k, 2, 63, [0, 1], FULL_SCAN, 7)
        scaled = estimate_gm1(frames_20k.scaled(4.0), 2, 63, [0, 1], FULL_SCAN, 7)
        assert np.array_equal(base.values, scaled.values)
        assert np.array_equal(base.stderr, scaled.stderr)

    def test_scale_invariance_generic_constant(self, frames_20k):
        pixels64 = frames_20k.pixels.astype(np.float64) * 3.0
        scaled = FrameSet(pixels64, frames_20k.geometry, 0, 0.0, 1, 1)
        base64 = FrameSet(frames_20k.pixels.astype(np.float64),
                          frames_20k.geometry, 0, 0.0, 1, 1)
        a = estimate_gm1(base64, 2, 63, [0, 1], FULL_SCAN, 7)
        b = estimate_gm1(scaled, 2, 63, [0, 1], FULL_SCAN, 7)
        assert np.max(np.abs(b.values / a.values - 1)) < 1e-12

    def test_row_permutation_exact(self, frames_20k):
        """Photonized rows carry distinct values, so this is a real check."""
        counts = photonize(FrameSet(frames_20k.pixels[:2000], frames_20k.geometry,
                                    1, 0.001, 2, 64), gain=30.0, seed=8)
        a = estimate_gm1(counts, 3, 63, [0, 1, 2], range(0, 128, 4), 7)
        b = estimate_gm1(counts, 3, 63, [2, 0, 1], range(0, 128, 4), 7)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.stderr, b.stderr)


class TestEstimatorValidation:
    def test_too_few_frames(self, frames_tiny):
        short = FrameSet(frames_tiny.pixels[:50], frames_tiny.geometry, 0, 0.0, 1, 1)
        with pytest.raises(InsufficientFramesError):
            estimate_gm1(short, 1, 63, [0], FULL_SCAN, 7)

    def test_row_count_must_match_m(self, frames_tiny):
        with pytest.raises(ValueError, match="rows"):
            estimate_gm1(frames_tiny, 2, 63, [0], FULL_SCAN, 7)

    def test_rows_must_be_distinct(self, frames_tiny):
        with pytest.raises(ValueError, match="distinct"):
            estimate_gm1(frames_tiny, 2, 63, [1, 1], FULL_SCAN, 7)

    def test_pixel_collision_rejected(self, frames_tiny):
        with pytest.raises(ValueError, match="already used"):
            estimate_gm1(frames_tiny, 2, 63, [0, 1], FULL_SCAN, y2=1)

    def test_too_few_bootstrap_blocks(self, frames_tiny):
        """600 frames in blocks of 100 are 6 blocks: too few for an error bar."""
        assert correlate.MIN_BLOCKS == 7
        with pytest.raises(InsufficientFramesError, match="blocks"):
            estimate_gm1(frames_tiny, 1, 63, [0], FULL_SCAN, 7, block_len=100)
        with pytest.raises(InsufficientFramesError, match="blocks"):
            bell_from_frames(frames_tiny, 1, bell.UPPER_ANGLES, block_len=100)
        curve = estimate_gm1(frames_tiny, 1, 63, [0], FULL_SCAN, 7, block_len=86)
        assert np.all(curve.stderr > 0)

    def test_out_of_range_pixels(self, frames_tiny):
        with pytest.raises(ValueError, match="out of range"):
            estimate_gm1(frames_tiny, 1, 500, [0], FULL_SCAN, 7)
        with pytest.raises(ValueError, match="out of range"):
            estimate_gm1(frames_tiny, 1, 63, [11], FULL_SCAN, 7)

    def test_cell_plans_check_arguments(self, frames_tiny):
        """The plans hold the estimators' argument checks, so a caller that
        plans before reading fails before the pass over the stack."""
        geom = frames_tiny.geometry
        with pytest.raises(ValueError, match="distinct"):
            correlate.gm1_terms(2, 63, [1, 1], FULL_SCAN, 7)
        with pytest.raises(ValueError, match="nonempty"):
            correlate.gm1_terms(1, 63, [0], [], 7)
        with pytest.raises(ValueError, match="already used"):
            correlate.gm1_terms(2, 63, [0, 1], FULL_SCAN, 1)
        with pytest.raises(ValueError, match="distinct"):
            correlate.bell_terms(geom, bell.UPPER_ANGLES, 5, range(6), 7, 1)
        with pytest.raises(ValueError, match="y2"):
            correlate.bell_terms(geom, bell.UPPER_ANGLES, 2, [0, 1], 1, 1)
        with pytest.raises(ValueError, match="n_realizations"):
            correlate.bell_terms(geom, bell.UPPER_ANGLES, 1, [0], 7, 0)


class TestVisibilityFit:
    def test_exact_recovery_on_noiseless_curve(self, desk_geom):
        delta = desk_geom.phase_map()
        values = 2.2 * (1 + 0.61 * np.cos(delta - 0.35))
        curve = CorrelationCurve(1, np.arange(128), values, np.full(128, 1e-3), 1000)
        est = fit_visibility(curve, desk_geom)
        assert est.value == pytest.approx(0.61, abs=1e-12)
        assert est.fit_residual <= 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_agrees_with_lstsq_reference(self, frames_20k, desk_geom, m):
        """The one cofactor inverse gives the estimate, its stderr and the
        residual of a weighted least-squares fit made by LAPACK."""
        curve = estimate_gm1(frames_20k, m, 63, list(range(m)), FULL_SCAN, 7)
        est = fit_visibility(curve, desk_geom)
        delta = desk_geom.phase_map()
        design = np.stack([np.ones_like(delta), np.cos(delta), np.sin(delta)], axis=1)
        scaled = design / curve.stderr[:, None]
        (c0, c1, c2), *_ = np.linalg.lstsq(scaled, curve.values / curve.stderr, rcond=None)
        cov = np.linalg.inv(scaled.T @ scaled)
        r = math.hypot(c1, c2)
        grad = np.array([-r / c0**2, c1 / (r * c0), c2 / (r * c0)])
        misfit = curve.values - design @ [c0, c1, c2]
        assert est.value == pytest.approx(r / c0, rel=1e-12, abs=0)
        assert est.stderr == pytest.approx(math.sqrt(grad @ cov @ grad), rel=1e-12, abs=0)
        assert est.fit_residual == pytest.approx(np.sqrt(np.mean(misfit**2)) / c0,
                                                 rel=1e-12, abs=0)

    @pytest.mark.parametrize("bad", [0.0, -1e-3, np.nan, np.inf, 1e-170])
    def test_degenerate_stderr_refused(self, desk_geom, bad):
        """Each point is weighted by 1/stderr^2, so a stderr whose weight is
        not finite and > 0 is refused, naming its column; no unweighted fit
        stands in for the weighted one."""
        delta = desk_geom.phase_map()
        values = 1.0 * (1 + 0.3 * np.cos(delta))
        stderr = np.full(128, 1e-3)
        stderr[18] = bad
        curve = CorrelationCurve(1, np.arange(128), values, stderr, 1000)
        with pytest.raises(NumericGuardError, match=f"^m = 1: x2 column 18 has stderr {bad}, but "):
            fit_visibility(curve, desk_geom)

    @pytest.mark.parametrize("columns, stderr", [
        ([0, 127, 127], 1e-3),          # two distinct columns: a singular matrix
        (range(128), 1e-153),           # finite weights whose cofactors overflow
    ], ids=["singular", "overflow"])
    def test_degenerate_normal_matrix_refused(self, desk_geom, columns, stderr):
        """A weighted normal matrix whose determinant is not finite and > 0
        is refused, naming m, before anything divides by it."""
        columns = np.array(columns)
        values = 1.0 * (1 + 0.3 * np.cos(desk_geom.phase_map()[columns]))
        curve = CorrelationCurve(4, columns, values, np.full(len(columns), stderr), 1000)
        with pytest.raises(NumericGuardError,
                           match="^m = 4: the weighted normal matrix of the fit has determinant "):
            fit_visibility(curve, desk_geom)

    @pytest.mark.parametrize("m", [1, 5])
    def test_rank_deficient_curve_refused(self, desk_geom, rng, m):
        """Two distinct columns give a singular normal matrix whose rounded
        determinant can come out just above 0; every such curve is refused
        against the product of the diagonal, naming m, whatever its values
        and stderrs."""
        for _ in range(200):
            curve = CorrelationCurve(m, np.array([0, 127]), rng.uniform(0.5, 2.0, 2),
                                     rng.uniform(1e-3, 1e-1, 2), 1000)
            with pytest.raises(NumericGuardError, match=(
                    f"^m = {m}: the weighted normal matrix of the fit has determinant .*, "
                    "not a finite value >= 1e-09 x the product of its diagonal$")):
                fit_visibility(curve, desk_geom)

    @pytest.mark.parametrize("stderr, edit, reason", [
        (8e-154, {}, "intermediate overflow in fsum"),
        (1e-3, {5: np.inf, 70: -np.inf}, "-inf + inf in fsum"),
    ], ids=["overflow", "inf-minus-inf"])
    def test_weighted_sum_without_value_refused(self, desk_geom, stderr, edit, reason):
        """Stderrs of 8e-154 weight each point by 1.6e306, finite, but the
        sum of 128 weights is not; +inf beside -inf adds inf to -inf.  Both
        are refused as a numeric guard naming m (exit 3), not a bare
        OverflowError or a ValueError the CLI would call a config error."""
        values = 1.0 * (1 + 0.3 * np.cos(desk_geom.phase_map()))
        values[list(edit)] = list(edit.values())
        curve = CorrelationCurve(3, np.arange(128), values, np.full(128, stderr), 1000)
        with pytest.raises(NumericGuardError, match=f"^m = 3: the fit's sums fail "
                           f"\\({re.escape(reason)}\\)$"):
            fit_visibility(curve, desk_geom)

    @pytest.mark.parametrize("k", [-100, -1, 1, 100])
    def test_power_of_two_stderr_scaling_exact(self, frames_20k, desk_geom, k):
        """Stderrs scaled by 2^k scale every weight by 2^-2k exactly: V and
        the residual keep their bits and V's stderr scales by 2^k."""
        curve = estimate_gm1(frames_20k, 2, 63, [0, 1], FULL_SCAN, 7)
        base = fit_visibility(curve, desk_geom)
        scaled = fit_visibility(CorrelationCurve(2, curve.x2_positions, curve.values,
                                                 np.ldexp(curve.stderr, k), 20000), desk_geom)
        assert scaled.value == base.value and scaled.fit_residual == base.fit_residual
        assert scaled.stderr == math.ldexp(base.stderr, k)

    def test_period_coverage_guard(self, frames_tiny, desk_geom):
        curve = estimate_gm1(frames_tiny, 1, 63, [0], range(40, 80), 7)
        with pytest.raises(PeriodCoverageError):
            fit_visibility(curve, desk_geom)

    def test_nan_value_gets_nan_stderr(self, desk_geom):
        """A nan in the curve makes the visibility nan, and its error bar
        too: never a finite (zero) stderr beside a nan value."""
        delta = desk_geom.phase_map()
        values = 1.0 * (1 + 0.3 * np.cos(delta))
        values[17] = np.nan
        curve = CorrelationCurve(1, np.arange(128), values, np.full(128, 1e-3), 1000)
        est = fit_visibility(curve, desk_geom)
        assert math.isnan(est.value) and math.isnan(est.stderr)


class TestBellFromFrames:
    def test_m1_statistic_matches_theory(self, frames_20k):
        report = bell_from_frames(frames_20k, 1, bell.UPPER_ANGLES,
                                  n_realizations=3, n_boot=100)
        expected = (1 / 3) * 2 * math.sqrt(2) / 4 - 0.5
        assert report.statistic == pytest.approx(expected, abs=5 * report.stderr)
        assert not report.violates_upper
        assert not report.violates_lower
        assert report.model_tag is bell.BellModel.FOUR_TERM_TLS
        assert report.visibility_used == pytest.approx(1 / 3, abs=0.05)

    def test_achieved_arguments_near_canonical(self, frames_20k):
        report = bell_from_frames(frames_20k, 1, bell.UPPER_ANGLES,
                                  n_realizations=2, n_boot=50)
        step = 2 * math.pi / frames_20k.geometry.fringe_period_px
        targets = bell.UPPER_ANGLES.arguments
        for real in report.achieved:
            for arg, target in zip(real["arguments"].values(), targets):
                assert abs(abs(math.cos(arg)) - abs(math.cos(target))) < 2 * step

    def test_shuffle_gives_minus_half(self, frames_20k):
        report = bell_from_frames(frames_20k, 1, bell.UPPER_ANGLES,
                                  n_realizations=3, n_boot=100, shuffle=True)
        assert report.statistic == pytest.approx(-0.5, abs=3 * report.stderr + 1e-3)

    def test_bootstrap_deterministic(self, frames_tiny):
        a = bell_from_frames(frames_tiny, 1, bell.UPPER_ANGLES, n_boot=60, boot_seed=4)
        b = bell_from_frames(frames_tiny, 1, bell.UPPER_ANGLES, n_boot=60, boot_seed=4)
        assert a.statistic == b.statistic
        assert a.stderr == b.stderr

    def test_report_serializes(self, frames_tiny):
        report = bell_from_frames(frames_tiny, 1, bell.UPPER_ANGLES, n_boot=40)
        payload = report.to_dict()
        assert payload["model_tag"] == "four_term_tls"
        assert payload["n_frames"] == frames_tiny.n_frames
        assert len(payload["achieved"]) == payload["n_realizations"]

    def test_requires_geometry(self, frames_tiny):
        bare = FrameSet(frames_tiny.pixels, None, 0, 0.0, 1, 1)
        with pytest.raises(ValueError, match="geometry"):
            bell_from_frames(bare, 1, bell.UPPER_ANGLES)

    def test_cell_table_source_matches_frameset(self, frames_tiny, tmp_path):
        """A block table read from an SPKL file, with the rows and y2 left to
        their defaults, gives the FrameSet's report; a table of another block
        length or shuffle flag is refused."""
        path = tmp_path / "tiny.spkl"
        spkl.write_spkl(path, frames_tiny)
        geom = frames_tiny.geometry
        last_row = frames_tiny.pixels.shape[1] - 1
        table = correlate.collect_cells(
            path, correlate.bell_terms(geom, bell.UPPER_ANGLES, 2, range(2), last_row, 2))
        got = bell_from_frames(table, 2, bell.UPPER_ANGLES, geom,
                               n_realizations=2, n_boot=40)
        want = bell_from_frames(frames_tiny, 2, bell.UPPER_ANGLES,
                                n_realizations=2, n_boot=40)
        assert got.statistic == want.statistic
        assert got.stderr == want.stderr
        assert got.achieved == want.achieved
        for kwargs in (dict(block_len=32), dict(shuffle=True)):
            with pytest.raises(ValueError, match="the table holds blocks of 64 frames"):
                bell_from_frames(table, 2, bell.UPPER_ANGLES, geom, n_realizations=2,
                                 n_boot=40, **kwargs)
        with pytest.raises(ValueError, match="not in the table"):
            bell_from_frames(table, 2, bell.UPPER_ANGLES, geom, n_realizations=3, n_boot=40)

    def test_y2_must_differ_from_rows(self, frames_tiny):
        with pytest.raises(ValueError, match="y2"):
            bell_from_frames(frames_tiny, 2, bell.UPPER_ANGLES, y1_rows=[0, 7], y2=7)


def _loop_usable_gauges(geom, angles):
    """The pixel-column search one gauge and one snap at a time: the
    reference for the vectorized ``correlate._bell_realizations``.  Returns
    the columns of every usable gauge in the order s1, p1, s1p, p1p, s2, p2,
    s2p, p2p."""
    phase_map = geom.phase_map()
    max_snap = 0.75 * float(np.median(np.abs(np.diff(phase_map))))

    def snap(target):
        col = int(np.argmin(np.abs(phase_map - target)))
        return col, float(phase_map[col] - target)

    usable = []
    for gauge in np.linspace(phase_map.min(), phase_map.max(), 512):
        cols = []
        for phase in bell.detector_phases(angles):
            col, err = snap(phase + gauge)
            # + pi first: min keeps the first of equal errors
            pcol, perr = min(snap(phase_map[col] + math.pi), snap(phase_map[col] - math.pi),
                             key=lambda ce: abs(ce[1]))
            if abs(err) > max_snap or abs(perr) > max_snap:
                break
            cols += [col, pcol]
        else:
            usable.append(cols)
    return usable


class TestBellRealizations:
    # fringe periods of 99.75, 145.1, 25, 110.8 and 20 px
    GEOMETRIES = [dict(pixel_pitch=8e-6, width=128), dict(),
                  dict(pixel_pitch=3.192e-5, width=64),
                  dict(pixel_pitch=6e-6, width=300, propagation=0.25),
                  dict(wavelength=500e-9, slit_separation=250e-6, propagation=0.2,
                       pixel_pitch=2e-5, width=60)]

    @pytest.mark.parametrize("angles", [bell.UPPER_ANGLES, bell.LOWER_ANGLES,
                                        bell.AngleSet(0.3, 1.1, 0.5, 1.3)])
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_matches_loop_search(self, geometry, angles):
        """The same columns as the loop, picked evenly from its usable
        gauges, and the same refusal one past their count."""
        geom = Geometry(**geometry)
        usable = _loop_usable_gauges(geom, angles)
        phase_map = geom.phase_map()
        max_snap = 0.75 * float(np.median(np.abs(np.diff(phase_map))))
        for n in (1, 2, 6, 11, 100, len(usable)):
            picks = np.linspace(0, len(usable) - 1, n).round().astype(int)
            got, targets, errors = correlate._bell_realizations(geom, angles, n)
            assert got.shape == targets.shape == errors.shape == (n, 8)
            assert got.tolist() == [usable[i] for i in picks]
            assert np.array_equal(phase_map[got] - targets, errors)
            assert np.all(np.abs(errors) <= max_snap)
            # each partner targets its setting's phase + or - pi
            assert np.allclose(np.abs(targets[:, 1::2] - phase_map[got[:, ::2]]), math.pi)
            # the settings' targets differ by the detector phases
            phases = np.array(bell.detector_phases(angles))
            assert np.allclose(targets[:, ::2] - targets[:, :1], phases - phases[0])
        with pytest.raises(SamplingGuardError) as info:
            correlate._bell_realizations(geom, angles, len(usable) + 1)
        assert str(info.value) == (
            f"only {len(usable)} pixel realizations of the angle tuple fit the grid; "
            f"{len(usable) + 1} requested")


def _chain(factors):
    """The product of ``factors`` multiplied left to right, one by one."""
    product = factors[0]
    for factor in factors[1:]:
        product = product * factor
    return product


def _loop_bootstrap_stderr(frames, m, x1, rows, scan, y2, n_boot, block_len, seed):
    """estimate_gm1's bootstrap resampled block by block, one replicate at a
    time: the reference for the matrix bootstrap."""
    pix = frames.pixels.astype(np.float64)
    x1_vals = pix[:, sorted(rows), x1]
    x2_vals = pix[:, y2, list(scan)]
    starts = np.arange(0, pix.shape[0], block_len)
    lengths = np.diff(np.append(starts, pix.shape[0])).astype(float)
    products = _chain(list(x1_vals.T))
    num_blocks = np.add.reduceat(products[:, None] * x2_vals, starts, axis=0)
    x1_blocks = np.add.reduceat(x1_vals, starts, axis=0)
    x2_blocks = np.add.reduceat(x2_vals, starts, axis=0)
    nb = len(starts)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xB00727)))
    boot = np.empty((n_boot, len(scan)))
    for r in range(n_boot):
        idx = rng.integers(0, nb, nb)
        n_star = lengths[idx].sum()
        x1_m = x1_blocks[idx].sum(axis=0) / n_star
        boot[r] = (num_blocks[idx].sum(axis=0) / n_star) / (
            _chain(x1_m) * (x2_blocks[idx].sum(axis=0) / n_star))
    return boot.std(axis=0, ddof=1)


def _ch74_reference(mean, m):
    """The four-term CH74 statistic of one realization, term by term."""
    s_keys, t_keys = ("s1", "p1", "s1p", "p1p"), ("s2", "p2", "s2p", "p2p")
    rows = {sk: mean[i * m:(i + 1) * m] for i, sk in enumerate(s_keys)}
    tvals = {tk: mean[4 * m + j] for j, tk in enumerate(t_keys)}
    num = {(sk, tk): mean[4 * m + 4 + 4 * i + j]
           for i, sk in enumerate(s_keys) for j, tk in enumerate(t_keys)}

    def ghat(sk, tk):
        return num[(sk, tk)] / (_chain(rows[sk]) * tvals[tk])

    partner = {"s1": "p1", "s1p": "p1p", "s2": "p2", "s2p": "p2p"}
    quads = {}
    probs = []
    for sk, tk in (("s1", "s2"), ("s1", "s2p"), ("s1p", "s2"), ("s1p", "s2p")):
        quad = (ghat(sk, tk), ghat(partner[sk], partner[tk]),
                ghat(sk, partner[tk]), ghat(partner[sk], tk))
        quads[(sk, tk)] = quad
        probs.append(quad[0] / sum(quad))
    quad1, quad3 = quads[("s1", "s2")], quads[("s1p", "s2")]
    marg_1p = (quad3[0] + quad3[2]) / sum(quad3)
    marg_2 = (quad1[0] + quad1[3]) / sum(quad1)
    return probs[0] - probs[1] + probs[2] + probs[3] - marg_1p - marg_2, probs


class TestAnalyze:
    @pytest.fixture(scope="class")
    def stack(self, frames_20k, tmp_path_factory):
        path = tmp_path_factory.mktemp("analyze") / "frames.spkl"
        spkl.write_spkl(path, frames_20k)
        spkl.write_sidecar(path, {"geometry": frames_20k.geometry.to_dict()})
        return path

    @pytest.mark.parametrize("flags", [[], ["--bell"], ["--shuffle"], ["--bell", "--shuffle"]],
                             ids=["curves", "bell", "shuffle", "bell-shuffle"])
    def test_formatted_result_is_the_command_output(self, frames_20k, desk_geom, stack,
                                                    tmp_path, capsys, flags):
        """``analyze`` on the FrameSet, formatted as the command formats it,
        gives the bytes and the printed lines of ``thermalbell correlate``
        on the same frames in a file."""
        assert cli.main(["correlate", "--frames", str(stack), "--m", "1..3", "--boot", "40",
                         "--realizations", "2", *flags, "--out", str(tmp_path / "run")]) == 0
        printed = capsys.readouterr().out
        cfg = CorrelateConfig(m_range="1..3", n_boot=40, realizations=2,
                              bell="--bell" in flags, shuffle="--shuffle" in flags)
        result = correlate.analyze(cfg, frames_20k, desk_geom)
        outputs, text = cli._correlate_texts(result, desk_geom, tmp_path / "run")
        assert text == printed
        written = sorted(p.name for p in tmp_path.iterdir() if not p.name.endswith(".meta.json"))
        assert sorted(p.name for p in outputs) == written
        for path, content in outputs.items():
            assert path.read_bytes() == content.encode(), path.name
        assert (result.bell is not None) == ("--bell" in flags)

    def test_refusal_comes_before_the_pass(self, frames_20k, desk_geom, monkeypatch):
        """A scan shorter than a fringe period is refused before
        ``collect_cells`` is called, on a FrameSet as on a file."""
        calls = []
        monkeypatch.setattr(correlate, "collect_cells", lambda *a, **k: calls.append(1))
        with pytest.raises(PeriodCoverageError, match="^scan spans 0.09 fringe periods"):
            correlate.analyze(CorrelateConfig(m_range="1", x2_range="0:10"), frames_20k,
                              desk_geom)
        assert calls == []


class TestSinglePassAndMatrixBootstrap:
    def test_cli_curves_match_per_m_estimates(self, frames_tiny, tmp_path):
        """One pass over the file gives the same curve bytes as one
        estimate_gm1 per m on the FrameSet."""
        path = tmp_path / "tiny.spkl"
        spkl.write_spkl(path, frames_tiny)
        spkl.write_sidecar(path, {"geometry": frames_tiny.geometry.to_dict()})
        assert cli.main(["correlate", "--frames", str(path), "--m", "1..3", "--bell",
                         "--realizations", "2", "--boot", "40",
                         "--out", str(tmp_path / "run")]) == 0
        x1 = int(np.argmin(np.abs(frames_tiny.geometry.phase_map())))
        for m in (1, 2, 3):
            curve = estimate_gm1(frames_tiny, m, x1, range(m), range(128), 7, n_boot=40)
            with (tmp_path / f"run_curve_m{m}.csv").open() as fh:
                got = [row["g_value_dimensionless"] for row in csv.DictReader(fh)]
            assert got == [repr(float(v)) for v in curve.values]

    def test_one_collect_pass_per_command(self, frames_tiny, tmp_path, monkeypatch):
        path = tmp_path / "tiny.spkl"
        spkl.write_spkl(path, frames_tiny)
        spkl.write_sidecar(path, {"geometry": frames_tiny.geometry.to_dict()})
        calls = []
        original = correlate.collect_cells

        def counting(source, terms, *args):
            calls.append(len(terms))
            return original(source, terms, *args)

        monkeypatch.setattr(correlate, "collect_cells", counting)
        assert cli.main(["correlate", "--frames", str(path), "--m", "1..3", "--bell",
                         "--realizations", "2", "--boot", "20",
                         "--out", str(tmp_path / "run")]) == 0
        assert len(calls) == 1

    def test_one_fsum_per_table_column(self, frames_tiny, tmp_path, monkeypatch):
        """The frame means are taken once, when the pass ends: one command
        takes ``math.fsum`` over as many rows of block sums as its table
        has, although the curves share the scan's columns."""
        path = tmp_path / "tiny.spkl"
        spkl.write_spkl(path, frames_tiny)
        spkl.write_sidecar(path, {"geometry": frames_tiny.geometry.to_dict()})
        tables, lengths = [], []
        collect, fsum = correlate.collect_cells, math.fsum

        def collecting(*args):
            tables.append(collect(*args))
            return tables[-1]

        def counting(values):
            if isinstance(values, memoryview):
                lengths.append(len(values))
            return fsum(values)

        monkeypatch.setattr(correlate, "collect_cells", collecting)
        monkeypatch.setattr(correlate.math, "fsum", counting)
        assert cli.main(["correlate", "--frames", str(path), "--m", "1..6", "--bell",
                         "--realizations", "2", "--boot", "20",
                         "--out", str(tmp_path / "run")]) == 0
        [table] = tables
        n_series, n_blocks = table.blocks.shape
        assert (len(lengths), set(lengths)) == (n_series, {n_blocks})

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_stderr_matches_per_replicate_loop(self, frames_tiny, shuffle):
        rows, scan = [2, 0, 1], range(0, 128, 3)
        curve = estimate_gm1(frames_tiny, 3, 63, rows, scan, 7, n_boot=70,
                             block_len=32, boot_seed=5, shuffle=shuffle)
        pixels = frames_tiny.pixels
        if shuffle:   # the reference shuffles the x2 side by hand
            pixels = pixels.copy()
            pixels[:, 7, :] = np.roll(pixels[:, 7, :], -1, axis=0)
        reference = _loop_bootstrap_stderr(
            FrameSet(pixels, None, 0, 0.0, 1, 1), 3, 63, rows, scan, 7,
            n_boot=70, block_len=32, seed=5)
        assert np.max(np.abs(curve.stderr / reference - 1)) < 1e-12

    def test_bootstrap_groups_match_per_replicate_loop(self, rng):
        """More replicates than one count matrix holds, and a short last
        block; the series are gathered from a table's rows in the order
        asked for."""
        rows = rng.random((7, 13))
        columns = [4, 0, 6, 2, 1]
        blocks = rows[columns].T
        table = types.SimpleNamespace(blocks=rows, n_frames=51, block_len=4)
        lengths = np.array([4.0] * 12 + [3.0])
        n_boot = 2 * correlate.BOOT_GROUP + 5

        def ratio(mean):
            return mean[..., :2] / mean[..., 2:4].sum(axis=-1)[..., None]

        got = correlate._resample(table, columns, n_boot, (3, 7), ratio)
        gen = np.random.default_rng(np.random.SeedSequence((3, 7)))
        want = []
        for _ in range(n_boot):
            idx = gen.integers(0, 13, 13)
            want.append(ratio(blocks[idx].sum(axis=0) / lengths[idx].sum()))
        assert got.shape == (n_boot, 2)
        assert np.max(np.abs(got / np.array(want) - 1)) < 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3, 6])
    def test_row_products_chain_in_given_order(self, rng, m):
        """Factors multiply left to right in the order given, bit for bit,
        including frames with zeros; a frame whose direct product underflows
        or overflows is recomputed from its logs, summed in the same order."""
        values = rng.uniform(0.0, 4.0, (2000, m))
        values[::7, 0] = 0.0
        values[5] = 1e-200
        values[5, -1] = 1e250
        values[6, :2] = 1e200
        values[6, -1] = 1e-250
        columns = list(values.T)
        with np.errstate(over="ignore"):
            want = np.array(_chain(columns))
        bad = ~np.isfinite(want) | ((want == 0) & np.all(values > 0, axis=1))
        # from m = 3 on, frame 5 underflows and frame 6 overflows
        assert np.flatnonzero(bad).tolist() == ([] if m < 3 else [5, 6])
        logs = np.log(columns[0][bad])
        for column in columns[1:]:
            logs = logs + np.log(column[bad])
        want[bad] = np.exp(logs)
        assert np.array_equal(correlate._row_products(columns), want)

    def test_padded_products_match_each_group(self, frames_tiny, monkeypatch, workers):
        """A plan of groups of 1 to 6 cells, over chunks of 32 frames: each
        numerator is that group's own product (``_row_products`` of its
        cells alone) times the x2 cell, bit for bit, although the pass pads
        the shorter groups with a row of ones.  In some frames the direct
        product of rows 0, 1 and 2 under- or overflows on the way, and is
        taken from the logs; every group's true product is a normal float."""
        monkeypatch.setattr(correlate, "CHUNK_PIXELS", 37 * 8 * 128)
        pixels = frames_tiny.pixels.astype(np.float64)
        pixels[[5, 300, 599], :3] = np.array([1e-200, 1e-200, 1e300])[:, None]
        pixels[[6, 301], :3] = np.array([1e200, 1e200, 1e-300])[:, None]
        source = FrameSet(pixels, frames_tiny.geometry, 0, 0.0, 1, 1)
        rows = {1: [0], 2: [1, 2], 3: [0, 1, 2], 4: range(4), 5: range(5), 6: range(6)}
        terms = [term for m, r in rows.items()
                 for term in correlate.gm1_terms(m, 64, r, FULL_SCAN, 7)]
        terms += correlate.bell_terms(frames_tiny.geometry, bell.UPPER_ANGLES, 6, range(6),
                                      7, 2)
        table = correlate.collect_cells(source, terms, 16)
        starts = np.arange(0, 600, 16)
        for groups, x2 in terms:
            want = [np.add.reduceat(correlate._row_products([pixels[:, r, c] for c, r in g])
                                    * pixels[:, r2, c2], starts)
                    for g in groups for c2, r2 in x2]
            got = table.blocks[table.columns((groups, x2))[1]]
            assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))

    def test_row_products_extend_by_one_factor(self, rng):
        """The product of m columns of distinct values is that of the first
        m - 1 times the m-th, bit for bit."""
        columns = list(rng.uniform(0.5, 2.0, (6, 5000)))
        for m in range(2, 7):
            assert np.array_equal(correlate._row_products(columns[:m]),
                                  correlate._row_products(columns[:m - 1]) * columns[m - 1])

    def test_ch74_kernel_matches_term_by_term(self, rng):
        m = 3
        mean = rng.uniform(0.5, 2.0, (4, 2, 4 * m + 20))
        stat, probs = correlate._ch74_four_term(mean, m)
        assert stat.shape == (4, 2) and probs.shape == (4, 2, 2, 2)
        for i in range(4):
            for r in range(2):
                want_stat, want_probs = _ch74_reference(mean[i, r], m)
                assert stat[i, r] == want_stat
                assert list(probs[i, r].ravel()) == want_probs


def _reference_blocks(pixels, terms, block_len, shuffle=False):
    """Every term's block columns [x1 | num | x2] from plain per-frame series
    of ``pixels``: each group's product multiplied in the group's order, the
    next frame's x2 values by ``np.roll``, and ``np.add.reduceat`` over each
    whole series."""
    pix = np.asarray(pixels, dtype=np.float64)
    later = np.roll(pix, -1, axis=0) if shuffle else pix
    starts = np.arange(0, len(pix), block_len)
    columns = []
    for groups, x2 in terms:
        prods = [_chain([pix[:, r, c] for c, r in g]) for g in groups]
        columns += [pix[:, r, c] for g in groups for c, r in g]
        columns += [p * later[:, r, c] for p in prods for c, r in x2]
        columns += [later[:, r, c] for c, r in x2]
    return np.column_stack([np.add.reduceat(series, starts) for series in columns])


def _table_blocks(table, terms):
    """The table's columns of ``terms``, in the reference's order."""
    columns = []
    for term in terms:
        x1, num, x2 = table.columns(term)
        columns += x1 + num + x2
    return table.blocks[columns].T


class TestGather:
    """``collect_cells`` against plain per-frame series, on 1 to 3 worker
    threads, in chunks of as many whole blocks as 37 frames hold (and at
    least one) read 11 frames at a time: a read is shorter than every chunk
    and divides none of them (35, 37, 64 and 130 frames).  Blocks of 64 and
    130 frames are longer than 37, and all but blocks of 1 leave a partial
    last block of the 600 frames of ``frames_tiny``."""

    X2 = tuple((c, 7) for c in range(0, 128, 9))
    TERMS = [
        # a Bell-like term of four groups of three
        (tuple(tuple((c, r) for r in (0, 2, 5)) for c in (5, 40, 64, 100)), X2),
        # a group of two sharing the x2 cells
        ((((63, 0), (63, 1)),), X2),
        # x2 cells out of the table's order, and cells on both sides
        ((((64, 3),), ((99, 7), (9, 0))), ((99, 7), (45, 7), (9, 7), (64, 3))),
    ]
    BLOCK_LENS = (1, 7, 37, 64, 130)

    @pytest.fixture(autouse=True)
    def chunks_37_reads_11(self, monkeypatch):
        monkeypatch.setattr(correlate, "CHUNK_PIXELS", 37 * 8 * 128 + 5)
        monkeypatch.setattr(correlate, "READ_PIXELS", 11 * 8 * 128 + 3)

    @pytest.mark.parametrize("from_file", [True, False])
    def test_table_matches_reference(self, frames_tiny, tmp_path, workers,
                                     threads_joined, from_file):
        source = frames_tiny
        if from_file:
            source = tmp_path / "tiny.spkl"
            spkl.write_spkl(source, frames_tiny)
        for block_len in self.BLOCK_LENS:
            for shuffle in (False, True):
                table = correlate.collect_cells(source, self.TERMS, block_len, shuffle)
                want = _reference_blocks(frames_tiny.pixels, self.TERMS, block_len, shuffle)
                assert np.array_equal(_table_blocks(table, self.TERMS), want)
                chunk = max(1, 37 // block_len) * block_len
                assert table.workers == min(workers, -(-600 // chunk))
        threads_joined()

    def test_table_holds_only_block_sums(self, frames_20k):
        """The table holds K x n_blocks float64 values, C-contiguous (one
        row per distinct cell series, one per numerator), their K frame
        means and no per-frame array; the pass's peak allocation stays far
        below one per-frame series of each of its cells."""
        tracemalloc.start()
        try:
            table = correlate.collect_cells(frames_20k, self.TERMS, 64, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 17 x1 cells of this frame, 16 x2 cells of the next
        n_cells = len({c for g, x2 in self.TERMS for grp in g for c in grp}) + \
            len({c for _, x2 in self.TERMS for c in x2})
        assert len(table.cells) == n_cells
        n_num = sum(len(g) * len(x2) for g, x2 in self.TERMS)
        assert table.blocks.shape == (n_cells + n_num, -(-20000 // 64))
        assert table.blocks.dtype == np.float64
        assert table.blocks.flags.c_contiguous
        assert table.means.shape == (n_cells + n_num,)
        assert [v for v in vars(table).values() if isinstance(v, np.ndarray)] == \
            [table.blocks, table.means]
        assert peak < 20000 * n_cells * 8 / 2

    def test_more_workers_than_cores_under_frequent_switches(self, frames_tiny, tmp_path,
                                                              monkeypatch, threads_joined):
        """Eight workers per CPU over the 86 chunks of 7-frame blocks, with
        the interpreter switching threads every microsecond: the reference
        table, in bounded time."""
        path = tmp_path / "tiny.spkl"
        spkl.write_spkl(path, frames_tiny)
        workers = 8 * len(os.sched_getaffinity(0))
        monkeypatch.setattr(speckle, "_worker_count", lambda n_chunks: workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            started = time.perf_counter()
            table = correlate.collect_cells(path, self.TERMS, 7, True)
            elapsed = time.perf_counter() - started
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(_table_blocks(table, self.TERMS),
                              _reference_blocks(frames_tiny.pixels, self.TERMS, 7, True))
        assert table.workers == workers
        assert elapsed < 60.0
        threads_joined()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_pass_opens_the_stack_once(self, frames_tiny, tmp_path, monkeypatch, workers,
                                       threads_joined):
        """A pass over a file opens it and checks its header once, for its
        69 reads of up to 11 frames (each 35-frame chunk of 7-frame blocks
        in 4 reads, the last 5 frames in one; 70 with shuffle: each chunk
        reads a frame more, and the last one wraps to frame 0), and closes
        it when the pass ends: after
        a pass that succeeds, one that refuses a pixel and one whose third
        read fails, as many descriptors are open as before."""
        good, bad = tmp_path / "tiny.spkl", tmp_path / "bad.spkl"
        spkl.write_spkl(good, frames_tiny)
        pixels = frames_tiny.pixels.copy()
        pixels[410, 7, 9] = np.nan
        spkl.write_spkl(bad, FrameSet(pixels, frames_tiny.geometry, 0, 0.0, 1, 1))
        opened, reads = [], []
        real_init, real_read = spkl.SpklReader.__init__, spkl.SpklReader.read

        def counting_init(self, path):
            opened.append(path)
            real_init(self, path)

        def counting_read(self, *args, **kwargs):
            reads.append(args)
            if fail_third and len(reads) == 3:
                raise OSError("read failed")
            return real_read(self, *args, **kwargs)
        monkeypatch.setattr(spkl.SpklReader, "__init__", counting_init)
        monkeypatch.setattr(spkl.SpklReader, "read", counting_read)
        fail_third = False
        descriptors = len(os.listdir("/proc/self/fd"))
        for shuffle, n_reads in ((False, 69), (True, 70)):
            reads.clear()
            correlate.collect_cells(good, self.TERMS, 7, shuffle)
            assert len(reads) == n_reads
            assert max(count for _, count in reads) == 11
        with pytest.raises(NumericGuardError, match="^frame 410, column 9, row 7 holds nan"):
            correlate.collect_cells(bad, self.TERMS, 7)
        fail_third = True
        reads.clear()
        with pytest.raises(OSError, match="read failed"):
            correlate.collect_cells(good, self.TERMS, 7)
        assert opened == [good, good, bad, good]
        threads_joined()
        assert len(os.listdir("/proc/self/fd")) == descriptors

    def test_starts_no_process(self, frames_tiny, tmp_path, monkeypatch):
        path = tmp_path / "tiny.spkl"
        spkl.write_spkl(path, frames_tiny)

        def refuse(*args, **kwargs):
            raise AssertionError("the pass started a process")
        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(subprocess, "Popen", refuse)
        correlate.collect_cells(path, self.TERMS, 7, True)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("convert", [
        lambda f: f,
        lambda f: photonize(f, 3.0, seed=1),
        # values float32 could not hold
        lambda f: FrameSet(f.pixels.astype(np.float64) * (1.0 + 2.0**-40), None, 0, 0.0, 1, 1),
    ], ids=["float32", "int32", "float64"])
    def test_table_dtype_holds_every_value(self, frames_tiny, convert):
        source = convert(frames_tiny)
        for shuffle in (False, True):
            table = correlate.collect_cells(source, self.TERMS, 37, shuffle)
            assert table.blocks.dtype == np.float64
            assert np.array_equal(_table_blocks(table, self.TERMS),
                                  _reference_blocks(source.pixels, self.TERMS, 37, shuffle))

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_float32_table_gives_float64_results(self, frames_tiny, shuffle):
        """Widening is exact and the sums run in float64, so a float32 stack
        gives the estimates of the same values held in float64."""
        wide = FrameSet(frames_tiny.pixels.astype(np.float64), frames_tiny.geometry,
                        0, 0.0, 1, 1)
        kwargs = dict(n_boot=40, shuffle=shuffle)
        got, want = (estimate_gm1(s, 3, 64, range(3), FULL_SCAN, 7, **kwargs)
                     for s in (frames_tiny, wide))
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.stderr, want.stderr)
        got, want = (bell_from_frames(s, 3, bell.UPPER_ANGLES, n_realizations=2, **kwargs)
                     for s in (frames_tiny, wide))
        assert (got.statistic, got.stderr) == (want.statistic, want.stderr)


class TestWorkingSet:
    """The pass's memory at the real chunk and read sizes."""

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_pass_holds_its_buffer_sets(self, frames_20k, workers, threads_joined, shuffle):
        """Over the 20 chunks of ``frames_20k`` the pass's traced peak above
        its table is the buffer sets it makes, one per worker, and per
        worker the temporaries of one step: a ufunc's iterator buffers (up
        to 3 operands of ``np.getbufsize()`` float64 values) and a chunk's
        products of all 7 groups with their three masks (more than the 4 x2
        rows a term gathers).  Nothing grows with the frame count or
        the chunk count, and the sets are freed before the pass returns;
        the table's means stay beside it."""
        tracemalloc.start()
        try:
            table = correlate.collect_cells(frames_20k, TestGather.TERMS, 64, shuffle)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        threads_joined()
        table_bytes = table.blocks.nbytes + table.means.nbytes
        held, peak = held - table_bytes, peak - table_bytes
        frame = 8 * 128
        read = correlate.READ_PIXELS // frame       # 256 frames
        chunk = correlate.CHUNK_PIXELS // frame     # 16 blocks of 64 frames
        n_cells = len(table.cells)
        # float32 reads and gathered cells; float64 cells, the row of ones
        # and a factor of the 7 groups (with shuffle a frame more), and the
        # 15 numerators of one group
        buffer_set = read * (frame + n_cells) * 4 + \
            ((n_cells + 1 + 7) * (chunk + shuffle) + 15 * chunk) * 8
        temporaries = 3 * np.getbufsize() * 8 + 7 * chunk * (8 + 3)
        assert peak <= workers * (buffer_set + temporaries)
        assert table.workers == workers
        assert table.buffer_bytes == workers * buffer_set
        # the sets are freed before the pass returns; the table's cell and
        # column lists stay
        assert held < 64 * 1024


class TestBadFrames:
    """A pixel the pass reads that is not finite and nonnegative is refused,
    naming its frame, column and row."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.5])
    @pytest.mark.parametrize("from_file", [False, True])
    def test_refused(self, frames_tiny, tmp_path, monkeypatch, workers, threads_joined,
                     value, from_file):
        monkeypatch.setattr(correlate, "CHUNK_PIXELS", 37 * 8 * 128)
        pixels = frames_tiny.pixels.copy()
        pixels[410, 7, 5] = value
        source = FrameSet(pixels, frames_tiny.geometry, 0, 0.0, 1, 1)
        if from_file:
            spkl.write_spkl(tmp_path / "bad.spkl", source)
            source = tmp_path / "bad.spkl"
        terms = correlate.gm1_terms(2, 63, [0, 1], FULL_SCAN, 7)
        for shuffle in (False, True):
            with pytest.raises(NumericGuardError,
                               match=f"^frame 410, column 5, row 7 holds {value}: "
                                     "intensities must be finite and nonnegative$"):
                correlate.collect_cells(source, terms, 64, shuffle)
        threads_joined()
        # a pixel no estimate reads does not matter
        assert correlate.collect_cells(source, correlate.gm1_terms(
            2, 63, [0, 1], range(6, 128), 7)).blocks.shape == (2 + 2 * 122, 10)

    def test_dark_pixel_refused(self, frames_tiny, monkeypatch, workers, threads_joined):
        """A pixel an estimate reads that is zero in every frame is refused,
        naming its column and row: its zero mean would make ghat nan."""
        monkeypatch.setattr(correlate, "CHUNK_PIXELS", 37 * 8 * 128)
        pixels = frames_tiny.pixels.copy()
        pixels[:, 7, 18] = 0.0
        source = FrameSet(pixels, frames_tiny.geometry, 0, 0.0, 1, 1)
        for shuffle in (False, True):
            with pytest.raises(NumericGuardError,
                               match="^column 18, row 7 is zero in every frame: "):
                estimate_gm1(source, 2, 63, [0, 1], FULL_SCAN, 7, shuffle=shuffle)
        threads_joined()
        # a dark pixel no estimate reads does not matter
        curve = estimate_gm1(source, 2, 63, [0, 1], range(19, 128), 7)
        assert np.all(np.isfinite(curve.values)) and np.all(np.isfinite(curve.stderr))

    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize("m, frames, value", [(3, [5], 1e200), (1, [5, 100], 1e308)],
                             ids=["product", "total"])
    def test_out_of_float_range_refused(self, rng, shuffle, m, frames, value):
        """x1 pixels of 1e200 on rows 0..2 in one frame make a product
        beyond the float range, and 1e308 on row 0 in two blocks a total
        beyond it.  Either is refused after the pass, naming the first
        column's pixels, and no warning is printed."""
        pixels = rng.exponential(size=(800, 8, 128))
        pixels[frames, :m, 10] = value
        source = FrameSet(pixels, None, 0, 0.0, 1, 1)
        if m == 1:
            named = "column 10, row 0 overflows"
        else:
            later = " of the next frame" * shuffle
            named = f"column 10, row 0 x column 10, row 1 x column 10, row 2 x column 0, " \
                    f"row 7{later} is inf"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericGuardError,
                               match=f"^the sum over all frames of {named}: its values "
                                     "overflow the float range$"):
                estimate_gm1(source, m, 10, range(m), FULL_SCAN, 7, n_boot=20,
                             shuffle=shuffle)

    def test_wrapped_frame_named(self, frames_tiny):
        """With shuffle the last chunk reads frame 0 again."""
        pixels = frames_tiny.pixels.copy()
        pixels[0, 7, 9] = np.nan
        source = FrameSet(pixels, frames_tiny.geometry, 0, 0.0, 1, 1)
        with pytest.raises(NumericGuardError, match="^frame 0, column 9, row 7 holds nan"):
            estimate_gm1(source, 1, 63, [0], FULL_SCAN, 7, shuffle=True)


class TestDegenerateBootstrap:
    """A pixel that is nonzero only in the last bootstrap block makes every
    replicate that does not draw that block divide 0/0.  The estimate is
    refused, naming m and, for a curve, the x2 column, and no warning is
    printed."""

    @staticmethod
    def _dark_but_last_frame(frames, column, row):
        pixels = frames.pixels.copy()
        pixels[:-1, row, column] = 0.0
        return FrameSet(pixels, frames.geometry, 0, 0.0, 1, 1)

    def test_curve_refused(self, frames_tiny):
        source = self._dark_but_last_frame(frames_tiny, 18, 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericGuardError,
                               match=r"^m = 2, x2 column 18: \d+ of 200 bootstrap "
                                     "replicates of ghat are not finite"):
                estimate_gm1(source, 2, 63, [0, 1], FULL_SCAN, 7)
        # the same pixel outside the scan does not matter
        curve = estimate_gm1(source, 2, 63, [0, 1], range(19, 128), 7)
        assert np.all(np.isfinite(curve.stderr))

    def test_bell_statistic_refused(self, frames_tiny):
        [(_, x2)] = correlate.bell_terms(frames_tiny.geometry, bell.UPPER_ANGLES, 1, [0],
                                         7, 1)
        source = self._dark_but_last_frame(frames_tiny, x2[0][0], 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericGuardError,
                               match=r"^m = 1: \d+ of 200 bootstrap replicates of the "
                                     "Bell statistic are not finite"):
                bell_from_frames(source, 1, bell.UPPER_ANGLES)


def _assert_fsum_means(values: np.ndarray, block_len: int = 1) -> None:
    """``collect_cells`` over frames whose one pixel row is ``values``
    [n, w], for one term of x2 cells only, in blocks of ``block_len``: row c
    of the table is pixel c's block sums, and its mean is ``math.fsum`` of
    them over n, bit for bit.  A total fsum overflows on is refused at once,
    naming its pixel; then one that is not finite, and then a pixel zero in
    every frame."""
    n, w = values.shape
    source = FrameSet(values[:, None, :], None, 0, 0.0, 1, 1)
    terms = [((), tuple((c, 0) for c in range(w)))]
    with np.errstate(over="ignore"):
        blocks = np.add.reduceat(values, np.arange(0, n, block_len), axis=0)
    totals = []
    for c, column in enumerate(blocks.T):
        try:
            totals.append(math.fsum(column))
        except OverflowError:
            refused = f"the sum over all frames of column {c}, row 0 overflows"
            break
    else:
        bad = [c for c, total in enumerate(totals) if not math.isfinite(total)]
        dark = [c for c, total in enumerate(totals) if total == 0]
        if bad:
            refused = f"the sum over all frames of column {bad[0]}, row 0 is {totals[bad[0]]}"
        elif dark:
            refused = f"column {dark[0]}, row 0 is zero in every frame"
        else:
            table = correlate.collect_cells(source, terms, block_len)
            assert np.array_equal(table.blocks, blocks.T)
            want = np.array(totals) / n
            assert np.array_equal(table.means.view(np.int64), want.view(np.int64))
            return
    with pytest.raises(NumericGuardError, match=f"^{refused}: "):
        correlate.collect_cells(source, terms, block_len)


class TestColumnSums:
    """The table's frame means against ``math.fsum`` of each series' block
    sums, through ``collect_cells`` on frames of one row of pixels: values
    that are finite and nonnegative, as the pass admits."""

    @given(arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 20)),
                  elements=st.one_of(st.floats(0.0, allow_infinity=False),
                                     st.floats(0.0, 1e3),
                                     st.integers(0, 4).map(float),
                                     # sums a plain float sum rounds wrongly
                                     st.sampled_from([2.0**53, 1.0, 0.5]))))
    @settings(max_examples=60, deadline=None)
    def test_matches_fsum(self, a):
        _assert_fsum_means(a)

    @pytest.mark.parametrize("decades", [0, 12])
    def test_block_sum_sized_columns(self, rng, decades):
        """3125 frames, as 200k frames in blocks of 64, over up to 12
        decades; a plain float sum misses fsum's rounding in some of the
        columns."""
        a = rng.random((3125, 40)) * 3000.0
        if decades:
            a = a * 10.0 ** rng.integers(0, decades, a.shape)
            assert not np.array_equal(np.asfortranarray(a).sum(axis=0),
                                      [math.fsum(c) for c in a.T])
        _assert_fsum_means(a)

    def test_exponent_spread(self, rng):
        a = np.abs(rng.standard_normal((3125, 40))) * 10.0 ** rng.uniform(-300, 300, (3125, 40))
        _assert_fsum_means(a)

    @pytest.mark.parametrize("a", [np.zeros((64, 40)), -np.zeros((64, 40)),
                                   np.zeros((1, 3)), np.arange(40.0)[None, :] + 0.5],
                             ids=["zeros", "negative-zeros", "zero-row", "one-row"])
    def test_zeros_and_one_row(self, a):
        _assert_fsum_means(a)

    def test_subnormals(self, rng):
        tiny = rng.integers(1, 2**30, (500, 40)) * 5e-324
        _assert_fsum_means(tiny)
        _assert_fsum_means(np.concatenate([tiny, np.abs(rng.standard_normal((500, 40))) * 1e-300]))

    def test_near_overflow_and_non_finite(self, rng):
        """A total fsum overflows on is refused, naming its pixel, and so is
        a block sum that overflows to inf."""
        near = rng.uniform(0.0, 1.0, (8, 40)) * 2e307
        near[:, 5] = 1.7e308              # the sum overflows: fsum raises
        _assert_fsum_means(near)
        _assert_fsum_means(np.delete(near, 5, axis=1))
        _assert_fsum_means(near, block_len=2)     # block sums of inf in column 5


class TestEstimateWorkers:
    """The block columns the estimates read, and the estimates, on 1 to 3
    worker threads in chunks of 37 frames: the 600 frames of
    ``frames_tiny`` are 16 full chunks and one of 8."""

    @pytest.fixture(autouse=True)
    def chunks_37(self, monkeypatch):
        monkeypatch.setattr(correlate, "CHUNK_PIXELS", 37 * 8 * 128)

    @staticmethod
    def _terms(geom):
        return (correlate.gm1_terms(3, 64, range(3), FULL_SCAN, 7)
                + correlate.gm1_terms(1, 64, [0], FULL_SCAN, 7)
                + correlate.bell_terms(geom, bell.UPPER_ANGLES, 3, range(3), 7, 2))

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_blocks_match_serial_sums(self, frames_tiny, workers, threads_joined, shuffle):
        """One table planned for two curves and two Bell realizations: every
        estimate's columns are the serial sums of its per-frame series."""
        terms = self._terms(frames_tiny.geometry)
        table = correlate.collect_cells(frames_tiny, terms, 37, shuffle)
        assert table.workers == workers
        threads_joined()
        for term in terms:
            assert np.array_equal(_table_blocks(table, [term]),
                                  _reference_blocks(frames_tiny.pixels, [term], 37, shuffle))

    def test_more_workers_than_cores_under_frequent_switches(self, frames_tiny, monkeypatch,
                                                              threads_joined):
        """Eight workers per CPU filling one table, with the interpreter
        switching threads every microsecond: the one-worker estimates, in
        bounded time."""
        geom = frames_tiny.geometry
        terms = self._terms(geom)

        def estimates(table):
            curve = estimate_gm1(table, 3, 64, range(3), FULL_SCAN, 7, block_len=16,
                                 n_boot=20, shuffle=True)
            report = bell_from_frames(table, 3, bell.UPPER_ANGLES, geom, y2=7, block_len=16,
                                      n_realizations=2, n_boot=20, shuffle=True)
            return curve.values.tobytes(), curve.stderr.tobytes(), json.dumps(report.to_dict())

        monkeypatch.setattr(speckle, "_worker_count", lambda n_chunks: 1)
        want = estimates(correlate.collect_cells(frames_tiny, terms, 16, True))
        workers = 8 * len(os.sched_getaffinity(0))
        monkeypatch.setattr(speckle, "_worker_count", lambda n_chunks: workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            started = time.perf_counter()
            table = correlate.collect_cells(frames_tiny, terms, 16, True)
            elapsed = time.perf_counter() - started
        finally:
            sys.setswitchinterval(interval)
        assert estimates(table) == want
        assert table.workers == workers
        assert elapsed < 60.0
        threads_joined()

    @pytest.mark.parametrize("from_file", [True, False])
    @pytest.mark.parametrize("shuffle", [False, True])
    def test_estimates_do_not_depend_on_worker_count(self, frames_tiny, tmp_path, monkeypatch,
                                                     workers, threads_joined, from_file,
                                                     shuffle):
        geom = frames_tiny.geometry
        source = frames_tiny
        if from_file:
            path = tmp_path / "tiny.spkl"
            spkl.write_spkl(path, frames_tiny)
            source = correlate.collect_cells(path, self._terms(geom), 64, shuffle)
        kwargs = dict(n_boot=40, shuffle=shuffle)

        def estimates():
            curve = estimate_gm1(source, 3, 64, range(3), FULL_SCAN, 7, **kwargs)
            report = bell_from_frames(source, 3, bell.UPPER_ANGLES, geom, y2=7,
                                      n_realizations=2, **kwargs)
            return curve, json.dumps(report.to_dict())

        got = estimates()
        threads_joined()
        monkeypatch.setattr(speckle, "_worker_count", lambda n_chunks: 1)
        if from_file:
            source = correlate.collect_cells(path, self._terms(geom), 64, shuffle)
        want = estimates()
        assert np.array_equal(got[0].values, want[0].values)
        assert np.array_equal(got[0].stderr, want[0].stderr)
        assert got[1] == want[1]

    def test_starts_no_process(self, frames_tiny, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an estimate started a process")
        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(subprocess, "Popen", refuse)
        estimate_gm1(frames_tiny, 3, 64, range(3), FULL_SCAN, 7, n_boot=20)
        bell_from_frames(frames_tiny, 3, bell.UPPER_ANGLES, n_realizations=2, n_boot=20,
                         shuffle=True)
        assert multiprocessing.active_children() == []
