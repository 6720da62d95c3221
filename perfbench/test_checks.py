"""Each correctness check passes a right answer and rejects a wrong one.

Run with ``python -m pytest perfbench``.
"""

import math

import numpy as np
import pytest

import checks
from checks import CheckError
from workloads import phase_map

HEADER = dict(n_frames=10, height=8, width=128, tau_ratio=0.06, seed=20260811)


def _header(**override):
    fields = {**HEADER, **override}
    return checks.SPKL_HEADER.pack(b"SPKL", 1, fields["n_frames"], fields["height"],
                                   fields["width"], fields["tau_ratio"], fields["seed"])


def _size(n_frames=HEADER["n_frames"]):
    return 36 + n_frames * 8 * 128 * 4


def test_header_accepts_config_and_rejects_wrong_frame_count():
    checks.check_spkl_header(_header(), _size(), **HEADER)
    with pytest.raises(CheckError, match="header"):
        checks.check_spkl_header(_header(n_frames=11), _size(11), **HEADER)
    with pytest.raises(CheckError, match="bytes"):
        checks.check_spkl_header(_header(), _size() - 4, **HEADER)
    with pytest.raises(CheckError, match="header"):
        checks.check_spkl_header(_header(seed=1), _size(), **HEADER)


def _speckle_rows(n_frames=4000, visibility=0.0, seed=3):
    """Frames of two thermal point sources: exponential slit intensities and
    a uniformly random relative phase; mean intensity 2."""
    rng = np.random.default_rng(seed)
    i1, i2 = rng.exponential(1.0, (2, n_frames, 1))
    phi = rng.uniform(0, 2 * math.pi, (n_frames, 1))
    delta = phase_map()[None, :]
    rows = i1 + i2 + 2 * np.sqrt(i1 * i2) * np.cos(delta + phi)
    return rows * (1 + visibility * np.cos(delta))


def test_rows_identical():
    rows = _speckle_rows(20).astype(np.float32)
    frames = np.repeat(rows[:, None, :], 8, axis=1)
    checks.check_rows_identical(frames)
    frames[3, 5, 7] += 1e-3
    with pytest.raises(CheckError):
        checks.check_rows_identical(frames)


def test_mean_intensity_rejects_scaled_frames():
    rows = _speckle_rows()
    checks.check_mean_intensity(rows, 2.0)
    with pytest.raises(CheckError):
        checks.check_mean_intensity(rows * 1.1, 2.0)


def test_first_order_fringe_rejected():
    checks.check_no_first_order_fringe(_speckle_rows(), phase_map())
    with pytest.raises(CheckError):
        checks.check_no_first_order_fringe(_speckle_rows(visibility=0.1), phase_map())


def test_prefix_must_match():
    payload = bytes(range(256)) * 4
    checks.check_prefix(payload, payload[:512])
    with pytest.raises(CheckError):
        checks.check_prefix(payload, payload[1:513])


@pytest.mark.parametrize("bad", [0.0, -1e-3, float("nan"), float("inf")])
def test_stderr_must_be_finite_and_positive(bad):
    checks.check_stderr([0.01, 0.02], "curve")
    with pytest.raises(CheckError):
        checks.check_stderr([0.01, bad], "curve")


THEORY = {m: m / (m + 2) for m in range(1, 7)}


def test_visibility_table():
    checks.check_visibility_table(THEORY, 0.004)
    with pytest.raises(CheckError):
        checks.check_visibility_table({m: v + 0.1 for m, v in THEORY.items()}, 0.004)
    with pytest.raises(CheckError, match="rise"):
        checks.check_visibility_table({**THEORY, 5: 0.76}, 0.004)
    with pytest.raises(CheckError, match="outside"):
        checks.check_visibility_table({**THEORY, 6: 0.805}, 0.004)
    checks.check_visibility_table({**THEORY, 6: 0.79}, 0.004)


UPPER = {"s1-s2": math.pi / 4, "s1-s2p": 3 * math.pi / 4, "s1p-s2": math.pi / 4,
         "s1p-s2p": math.pi / 4}


def _bell(m, statistic, stderr=0.005):
    return {"m": m, "statistic": statistic, "stderr": stderr, "n_realizations": 2,
            "achieved": [{"arguments": UPPER}, {"arguments": UPPER}]}


def test_bell_statistic_against_closed_form():
    closed = 6 / 8 * 2 * math.sqrt(2) / 4 - 0.5
    checks.check_bell(_bell(6, closed + 0.02), 6)
    with pytest.raises(CheckError, match="closed form"):
        checks.check_bell(_bell(6, closed + 0.05), 6)
    with pytest.raises(CheckError):
        checks.check_bell(_bell(6, closed, stderr=0.0), 6)
    with pytest.raises(CheckError):
        checks.check_bell(_bell(6, closed), 4)


def test_shuffled_control():
    checks.check_shuffled(_bell(6, -0.49, stderr=0.01))
    with pytest.raises(CheckError):
        checks.check_shuffled(_bell(6, 0.03, stderr=0.01))


def test_oracle_rows():
    rows = [{"m": m, "delta_rad": d, "oracle_plus_normalized":
             checks.normalized_closed_form(m, d)} for m in (1, 13) for d in (-3.0, 0.5)]
    checks.check_oracle_rows(rows)
    rows[-1]["oracle_plus_normalized"] *= 1 + 2e-9
    with pytest.raises(CheckError):
        checks.check_oracle_rows(rows)


def test_normalized_closed_form_values():
    # m = 1: 3!/4 * (1 + cos(delta)/3); at delta = 0 that is 2
    assert checks.normalized_closed_form(1, 0.0) == pytest.approx(2.0, rel=1e-15)
    assert checks.normalized_closed_form(2, math.pi) == pytest.approx(4.0 * 0.5, rel=1e-15)


def test_cross_correlation():
    rows = [{"m": m, "nbar": 0.2, "c_abs": m / (m + 2)} for m in range(1, 5)]
    checks.check_cross_correlation(rows)
    rows[2]["c_abs"] += 1e-7
    with pytest.raises(CheckError):
        checks.check_cross_correlation(rows)


def test_fock_gm1():
    rows = [{"m": 2, "nbar": 0.5, "delta": 1.0, "fock": checks.gm1_closed_form(2, 0.5, 1.0)}]
    checks.check_fock_gm1(rows)
    # m = 1 at delta = 0: 3!/2 * 2 * nbar^2 * (1 + 1/3) = 8 nbar^2
    assert checks.gm1_closed_form(1, 0.5, 0.0) == pytest.approx(2.0, rel=1e-15)
    rows[0]["fock"] *= 1 + 1e-5
    with pytest.raises(CheckError):
        checks.check_fock_gm1(rows)


def test_angle_scan():
    vis, step = 5 / 7, 0.02
    bound = vis * 2 * math.sqrt(2) / 4 - 0.5
    checks.check_angle_scan([{"statistic": bound - 1e-5}, {"statistic": -1.0}], vis, step)
    with pytest.raises(CheckError, match="exceeds"):
        checks.check_angle_scan([{"statistic": bound + 1e-6}], vis, step)
    with pytest.raises(CheckError, match="below"):
        checks.check_angle_scan([{"statistic": bound - 1e-3}], vis, step)
