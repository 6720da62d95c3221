import threading
import time

import numpy as np
import pytest

from thermalbell import blas, speckle
from thermalbell.sources import tls
from thermalbell.speckle import Geometry, generate_frames

# Desk-scale geometry: fringe period 99.75 px, scan spans 1.27 periods,
# slit-envelope droop across the window < 1%.
DESK_GEOMETRY = dict(pixel_pitch=8e-6, width=128, height=8)


@pytest.fixture(scope="session")
def desk_geom() -> Geometry:
    return Geometry(**DESK_GEOMETRY)


@pytest.fixture(scope="session")
def frames_20k(desk_geom):
    """Frozen-speckle stack shared by estimator tests (tau ~ 0)."""
    return generate_frames(desk_geom, tls(1.0, 1.0), 20000, tau_ratio=0.001,
                           substeps=2, n_subsources=64, seed=42)


@pytest.fixture(scope="session")
def frames_tiny(desk_geom):
    return generate_frames(desk_geom, tls(1.0, 1.0), 600, tau_ratio=0.01,
                           substeps=2, n_subsources=16, seed=7)


@pytest.fixture()
def rng():
    return np.random.default_rng(123)


@pytest.fixture(params=[1, 2, 3])
def workers(request, monkeypatch) -> int:
    """Frame generation and the pass from the stack to block sums on this
    many worker threads, whatever the CPU count."""
    monkeypatch.setattr(speckle, "_worker_count", lambda n_chunks: request.param)
    return request.param


@pytest.fixture()
def threads_joined():
    """Check that no frame-generation or block-sum worker is alive and that
    the thread count is back to its value when the test started, waiting up
    to 10 s for other threads to finish."""
    before = threading.active_count()

    def check():
        assert not [t.name for t in threading.enumerate()
                    if t.name.startswith(("speckle", "collect"))]
        deadline = time.monotonic() + 10.0
        while threading.active_count() != before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() == before
    return check


@pytest.fixture()
def blas_threads():
    """OpenBLAS set to two threads for the test, so that a pin that is not
    undone shows; yields the count (None where there is no OpenBLAS)."""
    lib = blas._openblas()
    if lib is None:
        yield None
        return
    get, put = lib
    before = get()
    put(2)
    try:
        yield get()
    finally:
        put(before)
