import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermalbell import bell
from thermalbell.bell import AngleSet, BellModel, Bound

SQRT2 = math.sqrt(2.0)


class TestCh74Middle:
    def test_all_zero(self):
        assert bell.ch74(np.zeros(4), 0.0, 0.0) == 0.0

    def test_independent_events(self):
        assert bell.ch74(np.full(4, 0.25), 0.5, 0.5) == pytest.approx(-0.5)

    def test_matches_statistic_at_ideal_spe(self):
        # joints (1 +- cos t_i)/4 with marginals 1/2 reproduce the closed form
        angles = bell.UPPER_ANGLES
        joints = np.array([(1 + math.cos(t)) / 4 for t in angles.arguments])
        want = bell.bell_statistic(BellModel.FOUR_TERM_TLS, 1.0, angles).statistic
        assert bell.ch74(joints, 0.5, 0.5) == pytest.approx(want, abs=1e-12)

    def test_array_kernel_matches_scalar_form(self):
        """Joints [..., 4] ordered (xy, xy', x'y, x'y'), against the middle
        expression j1 - j2 + j3 + j4 - P1(x') - P1(y) written out."""
        rng = np.random.default_rng(5)
        joints = rng.random((50, 4))
        xp, y = rng.random((2, 50))
        got = bell.ch74(joints, xp, y)
        assert got.shape == (50,)
        for k in range(50):
            j1, j2, j3, j4 = (float(j) for j in joints[k])
            assert got[k] == j1 - j2 + j3 + j4 - float(xp[k]) - float(y[k])


class TestDefaultAngles:
    def test_upper_arguments(self):
        assert bell.default_angles(Bound.UPPER).arguments == (
            math.pi / 4, 3 * math.pi / 4, math.pi / 4, math.pi / 4)

    def test_brackets_extremal(self):
        assert bell.default_angles(Bound.UPPER).bracket() == pytest.approx(2 * SQRT2)
        assert bell.default_angles(Bound.LOWER).bracket() == pytest.approx(-2 * SQRT2)

    def test_brackets_opposite(self):
        up = bell.default_angles(Bound.UPPER).bracket()
        lo = bell.default_angles(Bound.LOWER).bracket()
        assert up == pytest.approx(-lo, abs=1e-14)


class TestStatistic:
    def test_six_term_ideal_spe(self):
        report = bell.bell_statistic(BellModel.SIX_TERM_SPE, 1.0, bell.UPPER_ANGLES)
        assert report.statistic == pytest.approx((SQRT2 - 1) / 2, abs=1e-12)
        assert report.violates_upper
        assert not report.violates_lower

    def test_four_term_m5(self):
        report = bell.bell_statistic(BellModel.FOUR_TERM_TLS, 5 / 7, bell.UPPER_ANGLES)
        assert report.statistic == pytest.approx((5 / 28) * 2 * SQRT2 - 0.5, abs=1e-12)
        assert report.statistic == pytest.approx(0.0050763, abs=1e-6)
        assert report.violates_upper

    def test_four_term_zero_visibility(self):
        report = bell.bell_statistic(BellModel.FOUR_TERM_TLS, 0.0, bell.LOWER_ANGLES)
        assert report.statistic == pytest.approx(-0.5)
        assert not (report.violates_upper or report.violates_lower)

    def test_six_and_four_agree_at_unit_visibility(self):
        for angles in (bell.UPPER_ANGLES, bell.LOWER_ANGLES,
                       AngleSet(0.3, 1.0, -2.0, 0.9)):
            six = bell.bell_statistic(BellModel.SIX_TERM_TLS, 1.0, angles)
            four = bell.bell_statistic(BellModel.FOUR_TERM_TLS, 1.0, angles)
            assert six.statistic == pytest.approx(four.statistic, abs=1e-12)

    def test_rejects_bad_visibility(self):
        with pytest.raises(ValueError):
            bell.bell_statistic(BellModel.FOUR_TERM_TLS, 1.5, bell.UPPER_ANGLES)

    @given(v1=st.floats(0.0, 1.0), v2=st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_upper_statistic_monotone_in_visibility(self, v1, v2):
        lo, hi = sorted((v1, v2))
        for tag in (BellModel.SIX_TERM_TLS, BellModel.FOUR_TERM_TLS):
            s_lo = bell.bell_statistic(tag, lo, bell.UPPER_ANGLES).statistic
            s_hi = bell.bell_statistic(tag, hi, bell.UPPER_ANGLES).statistic
            assert s_hi >= s_lo - 1e-15

    @given(vis=st.floats(0.0, 1.0),
           phases=st.tuples(*[st.floats(-7.0, 7.0)] * 4))
    @settings(max_examples=300)
    def test_six_statistic_within_cosine_bounds(self, vis, phases):
        # realizable tuples only: the 2*sqrt(2) bracket bound presumes the
        # arguments arise as differences of four detector phases
        d1, d1p, d2, d2p = phases
        angles = AngleSet(d1 - d2, d1 - d2p, d1p - d2, d1p - d2p)
        stat = bell.bell_statistic(BellModel.SIX_TERM_TLS, vis, angles).statistic
        lo = (-2 * SQRT2 * vis + 2) / (6 - 2 * vis) - 1
        hi = (2 * SQRT2 * vis + 2) / (6 - 2 * vis) - 1
        assert lo - 1e-12 <= stat <= hi + 1e-12


class TestThresholds:
    def test_six_term_values(self):
        assert bell.threshold_visibility(BellModel.SIX_TERM_TLS, Bound.UPPER) == \
            pytest.approx(2 / (1 + SQRT2), abs=1e-15)
        assert bell.threshold_visibility(BellModel.SIX_TERM_SPE, Bound.LOWER) == \
            pytest.approx(1 / SQRT2, abs=1e-15)

    def test_four_term_same_both_bounds(self):
        up = bell.threshold_visibility(BellModel.FOUR_TERM_TLS, Bound.UPPER)
        lo = bell.threshold_visibility(BellModel.FOUR_TERM_TLS, Bound.LOWER)
        assert up == lo == pytest.approx(1 / SQRT2, abs=1e-15)

    @pytest.mark.parametrize("tag,bound", [
        (BellModel.SIX_TERM_TLS, Bound.UPPER),
        (BellModel.SIX_TERM_TLS, Bound.LOWER),
        (BellModel.FOUR_TERM_TLS, Bound.UPPER),
        (BellModel.FOUR_TERM_TLS, Bound.LOWER),
    ])
    def test_threshold_straddles_bound(self, tag, bound):
        vth = bell.threshold_visibility(tag, bound)
        angles = bell.default_angles(bound)
        above = bell.bell_statistic(tag, vth + 1e-9, angles)
        below = bell.bell_statistic(tag, vth - 1e-9, angles)
        if bound is Bound.UPPER:
            assert above.violates_upper and not below.violates_upper
        else:
            assert above.violates_lower and not below.violates_lower


class TestMinViolatingM:
    def test_value(self):
        assert bell.min_violating_m() == 5

    def test_m4_does_not_violate(self):
        report = bell.bell_statistic(BellModel.FOUR_TERM_TLS, 4 / 6, bell.UPPER_ANGLES)
        assert not report.violates_upper
        assert report.statistic < 0

    def test_m5_statistic_positive(self):
        report = bell.bell_statistic(BellModel.FOUR_TERM_TLS, 5 / 7, bell.UPPER_ANGLES)
        assert report.statistic > 0


def _reference_scan(model_tag, visibility, grid_step):
    """``angle_scan`` as one full cosine per grid point: per t1, the cosine
    of every t2 + t3 - t1, then the bracket and the statistic."""
    n = int(round(2.0 * math.pi / grid_step))
    grid = np.arange(n) * grid_step
    cos = np.cos(grid)
    pair = grid[:, None] + grid[None, :]
    bracket, cos_t4 = np.empty_like(pair), np.empty_like(pair)
    flats = np.empty((n, 2), dtype=np.intp)
    stats = np.empty((n, 2))
    for i in range(n):
        np.cos(np.subtract(pair, grid[i], out=cos_t4), out=cos_t4)
        np.subtract(cos[i], cos[:, None], out=bracket)
        bracket += cos[None, :]
        bracket += cos_t4
        stat = bell.statistic_value(model_tag, visibility, bracket)
        flats[i] = np.argmax(stat), np.argmin(stat)
        stats[i] = stat.flat[flats[i]]
    out = []
    for col, i in enumerate((np.argmax(stats[:, 0]), np.argmin(stats[:, 1]))):
        j, k = np.unravel_index(flats[i, col], pair.shape)
        angles = AngleSet(float(grid[i]), float(grid[j]), float(grid[k]),
                          float((pair[j, k] - grid[i]) % (2.0 * math.pi)))
        out.append((angles, float(stats[i, col])))
    return out


class TestAngleScan:
    def test_extrema_match_canonical(self):
        (amax, smax), (amin, smin) = bell.angle_scan(
            BellModel.FOUR_TERM_TLS, 1.0, math.pi / 12)
        canonical_hi = bell.bell_statistic(
            BellModel.FOUR_TERM_TLS, 1.0, bell.UPPER_ANGLES).statistic
        canonical_lo = bell.bell_statistic(
            BellModel.FOUR_TERM_TLS, 1.0, bell.LOWER_ANGLES).statistic
        assert smax == pytest.approx(canonical_hi, abs=1e-12)
        assert smin == pytest.approx(canonical_lo, abs=1e-12)
        assert amax.bracket() == pytest.approx(2 * SQRT2, abs=1e-12)
        assert amin.bracket() == pytest.approx(-2 * SQRT2, abs=1e-12)

    def test_bracket_never_exceeds_bound(self):
        (_, smax), _ = bell.angle_scan(BellModel.FOUR_TERM_TLS, 0.63, math.pi / 7)
        assert smax <= 0.63 * 2 * SQRT2 / 4 - 0.5 + 1e-12

    def test_flat_at_zero_visibility(self):
        (amax, smax), (amin, smin) = bell.angle_scan(BellModel.FOUR_TERM_TLS, 0.0, math.pi / 6)
        assert smax == pytest.approx(-0.5)
        assert smin == pytest.approx(-0.5)
        # Every grid point ties, so both extrema sit at the first one.
        assert amax.arguments == amin.arguments == (0.0, 0.0, 0.0, 0.0)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            bell.angle_scan(BellModel.FOUR_TERM_TLS, 0.5, 0.0)

    @pytest.mark.parametrize("step, points", [
        (100.0, 0),
        (2 * math.pi / (bell.MAX_SCAN_POINTS + 1), bell.MAX_SCAN_POINTS + 1),
        # 2pi / step huge or overflowing: the count in exponent form
        (1e-300, "6.283185307179586e+300"), (1e-310, "inf"), (5e-324, "inf"),
    ])
    def test_rejects_grid_size_outside_limits(self, step, points):
        with pytest.raises(ValueError, match=f"gives {re.escape(str(points))} points per argument"):
            bell.angle_scan(BellModel.FOUR_TERM_TLS, 0.5, step)

    def test_one_point_grid(self):
        """A step rounding to one point per argument scans the zero tuple."""
        (amax, _), (amin, _) = bell.angle_scan(BellModel.FOUR_TERM_TLS, 0.5, 2 * math.pi)
        assert amax.arguments == amin.arguments == (0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("model_tag", list(BellModel))
    @pytest.mark.parametrize("step", [math.pi / 12, math.pi / 7, 0.05, 0.07, 2 * math.pi,
                                      math.pi, 2 * math.pi / 3, 2 * math.pi / 5],
                             ids=["pi/12", "pi/7", "0.05", "0.07", "n1", "n2", "n3", "n5"])
    def test_matches_full_cosine_reference(self, model_tag, step):
        """The same extrema, arguments and statistics, to the bit, as a scan
        taking every cosine in full; at V = 0 every point ties."""
        for visibility in (0.0, 0.5, 5 / 7, 1.0):
            assert bell.angle_scan(model_tag, visibility, step) == \
                _reference_scan(model_tag, visibility, step)

    @given(model_tag=st.sampled_from(list(BellModel)),
           visibility=st.one_of(st.sampled_from([0.0, 1.0, 5e-324]),
                                st.floats(0.0, 1.0), st.floats(0.0, 1e-6)),
           n=st.integers(1, 100), jitter=st.floats(-0.004, 0.004))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_on_random_grids(self, model_tag, visibility, n, jitter):
        """Any model, visibility and grid, steps off 2pi / n included: the
        bits of the full cosine scan."""
        step = 2 * math.pi / n * (1.0 + jitter)
        assert bell.angle_scan(model_tag, visibility, step) == \
            _reference_scan(model_tag, visibility, step)

    @pytest.mark.parametrize("step, limit_mb", [(0.02, 2.53),
                                                (2 * math.pi / bell.MAX_SCAN_POINTS, 3.0)],
                             ids=["h0.02", "max"])
    def test_traced_peak(self, step, limit_mb):
        """No n x n array: at h = 0.02 the scan's traced peak stays under the
        2.53 MB of the slab-by-slab scan it replaced, and at the largest
        grid (1.5 MB measured) far under that scan's 102 MB."""
        tracemalloc.start()
        try:
            bell.angle_scan(BellModel.FOUR_TERM_TLS, 5 / 7, step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mb * 1e6

    def test_distinct_sum_cosines_are_the_full_cosines(self):
        """The property the scan rests on: at n = 314, for every t1, the
        cosines of the distinct t2 + t3 - t1 gathered by index equal the
        cosines of all n^2 of them, bit for bit."""
        grid = np.arange(314) * 0.02
        pair = grid[:, None] + grid[None, :]
        sums = np.unique(pair)
        where = np.searchsorted(sums, pair)
        assert len(sums) == 1145
        assert np.array_equal(sums[where], pair)
        for g in grid:
            assert np.array_equal(np.cos(sums - g)[where], np.cos(pair - g))

    @pytest.mark.parametrize("model_tag", list(BellModel))
    def test_statistic_in_place(self, model_tag, rng):
        """``statistic_value`` writes into ``out``, ``bracket`` itself too,
        the values it returns without; a float bracket gives a float."""
        bracket = rng.uniform(-bell.BRACKET_MAX, bell.BRACKET_MAX, (7, 5))
        want = bell.statistic_value(model_tag, 0.7, bracket)
        out = np.empty_like(bracket)
        assert bell.statistic_value(model_tag, 0.7, bracket, out=out) is out
        assert np.array_equal(out, want)
        assert bell.statistic_value(model_tag, 0.7, bracket, out=bracket) is bracket
        assert np.array_equal(bracket, want)
        value = bell.statistic_value(model_tag, 0.7, 1.25)
        assert type(value) is float
        assert value == bell.statistic_value(model_tag, 0.7, np.array([1.25]))[0]


class TestDetectorPhases:
    @pytest.mark.parametrize("angles", [
        bell.UPPER_ANGLES,
        bell.LOWER_ANGLES,
        AngleSet(0.5, 1.1, 0.2, 0.8),   # consistent: 0.5 - 1.1 - 0.2 + 0.8 = 0
    ])
    def test_realization_reproduces_cosines(self, angles):
        d1, d1p, d2, d2p = bell.detector_phases(angles)
        realized = (d1 - d2, d1 - d2p, d1p - d2, d1p - d2p)
        for r, t in zip(realized, angles.arguments):
            assert math.cos(r) == pytest.approx(math.cos(t), abs=1e-9)

    def test_report_serializes(self):
        report = bell.bell_statistic(BellModel.FOUR_TERM_TLS, 0.75, bell.UPPER_ANGLES)
        payload = report.to_dict()
        assert payload["model_tag"] == "four_term_tls"
        assert payload["violates_upper"] is True
        assert np.isfinite(payload["statistic"])
