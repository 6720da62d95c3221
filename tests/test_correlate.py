import csv
import math

import numpy as np
import pytest

from thermalbell import bell, cli, correlate, spkl
from thermalbell.correlate import (CorrelationCurve, bell_from_frames,
                                   estimate_gm1, fit_visibility)
from thermalbell.errors import InsufficientFramesError, PeriodCoverageError
from thermalbell.speckle import FrameSet, photonize

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


class TestVisibilityFit:
    def test_exact_recovery_on_noiseless_curve(self, desk_geom):
        delta = desk_geom.phase_map()
        values = 2.2 * (1 + 0.61 * np.cos(delta - 0.35))
        curve = CorrelationCurve(1, np.arange(128), values, np.full(128, 1e-3), 1000)
        est = fit_visibility(curve, desk_geom)
        assert est.value == pytest.approx(0.61, abs=1e-12)
        assert est.fit_residual <= 1e-12

    def test_unweighted_fallback_when_stderr_degenerate(self, desk_geom):
        delta = desk_geom.phase_map()
        values = 1.0 * (1 + 0.3 * np.cos(delta))
        curve = CorrelationCurve(1, np.arange(128), values, np.zeros(128), 1000)
        est = fit_visibility(curve, desk_geom)
        assert est.value == pytest.approx(0.3, abs=1e-12)

    def test_period_coverage_guard(self, frames_tiny, desk_geom):
        curve = estimate_gm1(frames_tiny, 1, 63, [0], range(40, 80), 7)
        with pytest.raises(PeriodCoverageError):
            fit_visibility(curve, desk_geom)


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

    def test_y2_must_differ_from_rows(self, frames_tiny):
        with pytest.raises(ValueError, match="y2"):
            bell_from_frames(frames_tiny, 2, bell.UPPER_ANGLES, y1_rows=[0, 7], y2=7)


def _loop_bootstrap_stderr(frames, m, x1, rows, scan, y2, n_boot, block_len, seed):
    """estimate_gm1's bootstrap resampled block by block, one replicate at a
    time: the reference for the matrix bootstrap."""
    pix = frames.pixels.astype(np.float64)
    x1_vals = pix[:, rows, x1]
    x2_vals = pix[:, y2, list(scan)]
    starts = np.arange(0, pix.shape[0], block_len)
    lengths = np.diff(np.append(starts, pix.shape[0])).astype(float)
    products = np.prod(np.sort(x1_vals, axis=1), axis=1)
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
            np.prod(np.sort(x1_m)) * (x2_blocks[idx].sum(axis=0) / n_star))
    return boot.std(axis=0, ddof=1)


def _ch74_reference(mean, m):
    """The four-term CH74 statistic of one realization, term by term."""
    s_keys, t_keys = correlate._S_KEYS, correlate._T_KEYS
    rows = {sk: mean[i * m:(i + 1) * m] for i, sk in enumerate(s_keys)}
    tvals = {tk: mean[4 * m + j] for j, tk in enumerate(t_keys)}
    num = {(sk, tk): mean[4 * m + 4 + 4 * i + j]
           for i, sk in enumerate(s_keys) for j, tk in enumerate(t_keys)}

    def ghat(sk, tk):
        return num[(sk, tk)] / (np.prod(np.sort(rows[sk])) * tvals[tk])

    partner = correlate._PARTNER
    quads = {}
    probs = []
    for sk, tk in correlate._PACKS:
        quad = (ghat(sk, tk), ghat(partner[sk], partner[tk]),
                ghat(sk, partner[tk]), ghat(partner[sk], tk))
        quads[(sk, tk)] = quad
        probs.append(quad[0] / sum(quad))
    quad1, quad3 = quads[("s1", "s2")], quads[("s1p", "s2")]
    marg_1p = (quad3[0] + quad3[2]) / sum(quad3)
    marg_2 = (quad1[0] + quad1[3]) / sum(quad1)
    return probs[0] - probs[1] + probs[2] + probs[3] - marg_1p - marg_2, probs


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

        def counting(source, cells):
            calls.append(len(cells))
            return original(source, cells)

        monkeypatch.setattr(correlate, "collect_cells", counting)
        assert cli.main(["correlate", "--frames", str(path), "--m", "1..3", "--bell",
                         "--realizations", "2", "--boot", "20",
                         "--out", str(tmp_path / "run")]) == 0
        assert len(calls) == 1

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
        """More replicates than one count matrix holds, and a short last block."""
        blocks = rng.random((13, 5))
        lengths = np.array([4.0] * 12 + [3.0])
        n_boot = 2 * correlate.BOOT_GROUP + 5

        def ratio(sums, n_star):
            return sums[..., :2] / (n_star[..., None] * sums[..., 2:4].sum(axis=-1)[..., None])

        got = correlate._bootstrap(blocks, lengths, n_boot, (3, 7), ratio)
        gen = np.random.default_rng(np.random.SeedSequence((3, 7)))
        want = []
        for _ in range(n_boot):
            idx = gen.integers(0, 13, 13)
            want.append(ratio(blocks[idx].sum(axis=0), np.array(lengths[idx].sum())))
        assert got.shape == (n_boot, 2)
        assert np.max(np.abs(got / np.array(want) - 1)) < 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3, 6])
    def test_row_products_match_sorted_product(self, rng, m):
        """The compare-exchange network gives np.sort's factor order bit for
        bit, including frames with zeros and frames whose direct product
        underflows (recomputed in the log domain)."""
        values = rng.uniform(0.0, 4.0, (2000, m))
        values[::7, 0] = 0.0
        values[5] = 1e-200
        values[5, -1] = 1e250
        want = np.prod(np.sort(values, axis=1), axis=1)
        bad = ~np.isfinite(want) | ((want == 0) & np.all(values > 0, axis=1))
        want[bad] = np.exp(np.sum(np.log(np.sort(values[bad], axis=1)), axis=1))
        got = correlate._row_products(list(values.T))
        assert np.array_equal(got, want)
        assert np.array_equal(correlate._row_products(list(values.T[::-1])), want)

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
