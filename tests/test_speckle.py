import hashlib
import math
import multiprocessing
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from thermalbell import blas, correlate, speckle
from thermalbell.errors import SamplingGuardError
from thermalbell.sources import spe, tls
from thermalbell.speckle import Geometry, generate_frames, photonize


GOLDEN_FRAMES = "f189be205e27cecdeca68b1fb84fea6e6f3b63fa6a94320d10cd3c463785cb01"


def _reference_intensity(geom, model, n_frames, tau, substeps, n_sub, seed, slits):
    """Frame intensities [n_frames, width] made the plain way: a new Philox
    generator per frame and fresh arrays at every substep."""
    pos = speckle.subsource_positions(geom, n_sub, slits)
    k = 2.0 * math.pi / geom.wavelength
    phases = np.exp(1j * k * np.outer(pos, geom.pixel_positions()) / geom.propagation)
    sigma = math.sqrt(model.field_amp**2 * model.mean_photons / n_sub)
    rho = math.exp(-tau / substeps)
    innov = math.sqrt(max(0.0, 1.0 - rho * rho))
    z = np.stack([np.random.Generator(np.random.Philox(key=np.array(
        [seed, f], dtype=np.uint64))).standard_normal((substeps, pos.size, 2))
        for f in range(n_frames)])
    draws = (z[..., 0] + 1j * z[..., 1]) * (sigma / math.sqrt(2.0))
    current = draws[:, 0]
    field = current @ phases
    intensity = field.real**2 + field.imag**2
    for step in range(1, substeps):
        current = rho * current + innov * draws[:, step]
        field = current @ phases
        intensity += field.real**2 + field.imag**2
    intensity /= substeps
    return intensity.astype(np.float32)


@pytest.fixture(scope="module")
def golden_frames(desk_geom):
    return generate_frames(desk_geom, tls(1.0, 1.0), 257, 0.06, substeps=8,
                           n_subsources=64, seed=20260811, chunk=100)


class TestGeometry:
    def test_paper_defaults_fringe_period(self):
        geom = Geometry()
        assert geom.fringe_period == pytest.approx(0.798e-3, rel=1e-10)
        assert geom.fringe_period_px == pytest.approx(145.0909, rel=1e-4)

    def test_phase_map_is_linear_and_centered(self):
        geom = Geometry(pixel_pitch=8e-6, width=128, height=2)
        delta = geom.phase_map()
        steps = np.diff(delta)
        assert np.allclose(steps, steps[0])
        assert delta[0] == pytest.approx(-delta[-1])

    def test_sampling_guard(self):
        geom = Geometry(pixel_pitch=100e-6, width=64, height=2)
        assert geom.fringe_period_px < 16
        with pytest.raises(SamplingGuardError):
            geom.check_sampling()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Geometry(wavelength=0.0)

    def test_dict_round_trip(self):
        geom = Geometry(pixel_pitch=8e-6, width=128, height=4)
        assert Geometry.from_dict(geom.to_dict()) == geom


class TestSubsources:
    def test_two_slits_span(self):
        geom = Geometry()
        pos = speckle.subsource_positions(geom, 8)
        assert pos.size == 16
        assert pos.min() == pytest.approx(-geom.slit_separation / 2 - geom.slit_width / 2)
        assert pos.max() == pytest.approx(geom.slit_separation / 2 + geom.slit_width / 2)

    def test_single_subsource_sits_at_slit_center(self):
        geom = Geometry()
        pos = speckle.subsource_positions(geom, 1)
        assert pos == pytest.approx([-geom.slit_separation / 2, geom.slit_separation / 2])


class TestGeneration:
    def test_seed_determinism(self, desk_geom):
        a = generate_frames(desk_geom, tls(1.0), 200, 0.05, substeps=3, seed=11)
        b = generate_frames(desk_geom, tls(1.0), 200, 0.05, substeps=3, seed=11)
        assert np.array_equal(a.pixels, b.pixels)

    def test_seed_sensitivity(self, desk_geom):
        a = generate_frames(desk_geom, tls(1.0), 50, 0.05, seed=11)
        b = generate_frames(desk_geom, tls(1.0), 50, 0.05, seed=12)
        assert not np.array_equal(a.pixels, b.pixels)

    def test_chunk_size_does_not_change_output(self, desk_geom):
        """Chunks that divide nothing, divide evenly, or exceed the stack."""
        a = generate_frames(desk_geom, tls(1.0), 150, 0.05, substeps=4, seed=3, chunk=150)
        for chunk in (7, 50, 1000):
            b = generate_frames(desk_geom, tls(1.0), 150, 0.05, substeps=4, seed=3,
                                chunk=chunk)
            assert np.array_equal(a.pixels, b.pixels), chunk

    @pytest.mark.parametrize("tau, substeps, n_sub, slits", [
        (0.06, 8, 16, 2), (0.0, 1, 1, 2), (2.0, 3, 5, 1)])
    def test_matches_per_frame_generator_reference(self, desk_geom, tau, substeps,
                                                   n_sub, slits):
        """Same bytes as a new Philox generator per frame and fresh arrays at
        every substep."""
        model = tls(1.3, 0.7)
        got = generate_frames(desk_geom, model, 40, tau, substeps, n_sub, seed=5,
                              slits=slits, chunk=16).pixels[:, 0, :]
        assert np.array_equal(got, _reference_intensity(desk_geom, model, 40, tau,
                                                        substeps, n_sub, 5, slits))

    def test_golden_frames(self, golden_frames):
        """Pinned bytes of the tau06 acceptance config: any change to the
        streams, the draw order or the float operations shows here."""
        assert hashlib.sha256(golden_frames.pixels.tobytes()).hexdigest() == GOLDEN_FRAMES

    def test_rows_carry_identical_field(self, frames_tiny):
        assert np.array_equal(frames_tiny.pixels[:, 0, :], frames_tiny.pixels[:, -1, :])

    def test_mean_intensity_scale(self, frames_20k):
        # two slits of unit mean photon number and unit field amplitude
        assert frames_20k.pixels.mean() == pytest.approx(2.0, rel=0.02)

    def test_rejects_non_thermal_model(self, desk_geom):
        with pytest.raises(ValueError, match="thermal"):
            generate_frames(desk_geom, spe(), 10, 0.05)

    def test_rejects_bad_tau(self, desk_geom):
        with pytest.raises(ValueError):
            generate_frames(desk_geom, tls(1.0), 10, -0.5)

    def test_sampling_guard_raised(self):
        geom = Geometry(pixel_pitch=100e-6, width=64, height=2)
        with pytest.raises(SamplingGuardError):
            generate_frames(geom, tls(1.0), 10, 0.05)


@pytest.mark.parametrize("chunk", [7, 50, 1000])
class TestWorkerThreads:
    """The bytes depend on neither the worker count nor the chunk size, and
    every worker is joined however the generator ends."""

    def test_golden_frames(self, desk_geom, workers, chunk):
        fs = generate_frames(desk_geom, tls(1.0, 1.0), 257, 0.06, substeps=8,
                             n_subsources=64, seed=20260811, chunk=chunk)
        assert hashlib.sha256(fs.pixels.tobytes()).hexdigest() == GOLDEN_FRAMES

    def test_matches_per_frame_generator_reference(self, desk_geom, workers, chunk):
        model = tls(1.3, 0.7)
        got = generate_frames(desk_geom, model, 60, 0.06, 8, 16, seed=5,
                              chunk=chunk).pixels[:, 0, :]
        assert np.array_equal(got, _reference_intensity(desk_geom, model, 60, 0.06,
                                                        8, 16, 5, 2))

    def test_closed_early(self, desk_geom, workers, chunk, threads_joined, blas_threads):
        chunks = speckle.iter_intensity_chunks(desk_geom, tls(1.0), 300, 0.06,
                                               chunk=chunk)
        next(chunks)
        if blas_threads is not None:
            assert blas.threads() == 1
        chunks.close()
        threads_joined()
        assert blas.threads() == blas_threads

    def test_consumer_raises(self, desk_geom, workers, chunk, threads_joined,
                             blas_threads):
        with pytest.raises(RuntimeError, match="consumer"):
            for _ in speckle.iter_intensity_chunks(desk_geom, tls(1.0), 300, 0.06,
                                                   chunk=chunk):
                raise RuntimeError("consumer failed")
        threads_joined()
        assert blas.threads() == blas_threads

    def test_worker_raises(self, desk_geom, workers, chunk, threads_joined,
                           blas_threads, monkeypatch):
        make = speckle._intensity_chunk

        def failing(plan, start, batch):
            if start + batch == 300:                      # the last chunk
                raise FloatingPointError("worker failed")
            return make(plan, start, batch)
        monkeypatch.setattr(speckle, "_intensity_chunk", failing)
        with pytest.raises(FloatingPointError, match="worker"):
            generate_frames(desk_geom, tls(1.0), 300, 0.06, chunk=chunk)
        threads_joined()
        assert blas.threads() == blas_threads


def test_more_workers_than_cores_under_frequent_switches(desk_geom, monkeypatch,
                                                          threads_joined):
    """Eight workers per CPU, with the interpreter switching threads every
    microsecond: same bytes, in bounded time.  The pool starts a thread only
    for a chunk, so never more than the 86 chunks here."""
    workers = 8 * len(os.sched_getaffinity(0))
    monkeypatch.setattr(speckle, "_worker_count", lambda n_chunks: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        started = time.perf_counter()
        fs = generate_frames(desk_geom, tls(1.0, 1.0), 257, 0.06, substeps=8,
                             n_subsources=64, seed=20260811, chunk=3)
        elapsed = time.perf_counter() - started
    finally:
        sys.setswitchinterval(interval)
    assert hashlib.sha256(fs.pixels.tobytes()).hexdigest() == GOLDEN_FRAMES
    assert elapsed < 60.0
    threads_joined()


def test_starts_no_process(desk_geom, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("frame generation started a process")
    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)
    generate_frames(desk_geom, tls(1.0), 300, 0.06, chunk=50)
    assert multiprocessing.active_children() == []


class TestThermalStatistics:
    def test_single_slit_intensity_is_exponential(self):
        """Single Gaussian mode: <I^2>/<I>^2 = 2 and unit speckle contrast."""
        geom = Geometry(pixel_pitch=8e-6, width=24, height=1)
        fs = generate_frames(geom, tls(1.0), 100_000, tau_ratio=1e-6,
                             substeps=1, n_subsources=32, seed=5, slits=1)
        intensity = fs.pixels[:, 0, 12].astype(float)
        ratio = np.mean(intensity**2) / np.mean(intensity) ** 2
        assert ratio == pytest.approx(2.0, abs=0.02)
        contrast = intensity.std() / intensity.mean()
        assert contrast == pytest.approx(1.0, abs=0.02)

    def test_ensemble_mean_profile_fringe_free(self):
        """Independent sources: the mean intensity carries no delta fringe."""
        geom = Geometry(pixel_pitch=8e-6, width=128, height=1)
        fs = generate_frames(geom, tls(1.0), 30_000, 0.01, substeps=2,
                             n_subsources=32, seed=33)
        profile = fs.pixels[:, 0, :].astype(float).mean(axis=0)
        delta = geom.phase_map()
        design = np.stack([np.ones_like(delta), np.cos(delta), np.sin(delta)], axis=1)
        coef, *_ = np.linalg.lstsq(design, profile, rcond=None)
        fringe_fraction = math.hypot(coef[1], coef[2]) / coef[0]
        assert fringe_fraction < 0.01
        assert profile.max() / profile.min() - 1 < 0.02

    def test_visibility_degrades_with_integration_time(self):
        """Fringe contrast of g2 is non-increasing in tau_i/tau_c."""
        geom = Geometry(pixel_pitch=8e-6, width=128, height=2)
        estimates = []
        for tau in (0.01, 0.06, 0.3, 1.0):
            fs = generate_frames(geom, tls(1.0), 20_000, tau, substeps=8,
                                 n_subsources=32, seed=21)
            curve = correlate.estimate_gm1(fs, 1, 63, [0], range(128), 1)
            estimates.append(correlate.fit_visibility(curve, geom).value)
        assert all(a >= b for a, b in zip(estimates, estimates[1:]))
        assert estimates[0] == pytest.approx(1 / 3, abs=0.02)


class TestPhotonize:
    def test_determinism(self, frames_tiny):
        a = photonize(frames_tiny, gain=10.0, seed=4)
        b = photonize(frames_tiny, gain=10.0, seed=4)
        assert np.array_equal(a.pixels, b.pixels)
        c = photonize(frames_tiny, gain=10.0, seed=5)
        assert not np.array_equal(a.pixels, c.pixels)

    def test_tiny_gain_gives_all_zero(self, frames_tiny):
        counts = photonize(frames_tiny, gain=1e-12, seed=1)
        assert counts.pixels.sum() == 0

    def test_mean_counts_track_intensity(self, desk_geom):
        fs = generate_frames(desk_geom, tls(1.0), 4000, 0.001, substeps=1,
                             n_subsources=16, seed=9)
        gain = 50.0
        counts = photonize(fs, gain=gain, seed=3).pixels[:, 0, 64].astype(float)
        intensity = fs.pixels[:, 0, 64].astype(float)
        assert counts.mean() / gain == pytest.approx(intensity.mean(), rel=0.01)

    def test_fano_factor_shows_thermal_excess(self, desk_geom):
        """var/mean of thermal-light counts is 1 + gain*<I>*(g2 - 1)."""
        fs = generate_frames(desk_geom, tls(1.0), 4000, 0.001, substeps=1,
                             n_subsources=16, seed=9)
        gain = 50.0
        counts = photonize(fs, gain=gain, seed=3).pixels[:, 0, 64].astype(float)
        intensity = fs.pixels[:, 0, 64].astype(float)
        g2 = np.mean(intensity**2) / np.mean(intensity) ** 2
        predicted = 1.0 + gain * intensity.mean() * (g2 - 1.0)
        assert counts.var() / counts.mean() == pytest.approx(predicted, rel=0.1)

    def test_golden_counts(self, golden_frames):
        counts = photonize(golden_frames, gain=10.0, seed=4)
        assert hashlib.sha256(counts.pixels.tobytes()).hexdigest() == \
            "3693cc20a5e45796a54c9bf11a99712f493d6a36a051a4c9814134d28b993690"

    def test_rejects_bad_gain(self, frames_tiny):
        with pytest.raises(ValueError):
            photonize(frames_tiny, gain=0.0)
