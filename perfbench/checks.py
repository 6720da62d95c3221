"""Correctness checks for the benchmark's workloads.

Every check compares a program output with a value this module computes
itself (closed forms, exact integers, or statistics of the frames), never
with a stored copy of an earlier output.  A failing check raises
``CheckError``; the benchmark then reports ``"correct": false``.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction

import numpy as np

SPKL_HEADER = struct.Struct("<4sIIIIdQ")

# Statistical checks allow this many standard errors.  Five keeps a correct
# program passing at any seed (a Gaussian tail beyond 5 sigma is ~6e-7).
K_SIGMA = 5.0

# |V_hat(m) - m/(m+2)| may not exceed this.  On the 200k-frame analyze
# stack V_hat(6) spreads by about 0.014 between seeds (0.716 to 0.762 over
# eight seeds) around 0.741: the 3 ms / 50 ms integration time removes about
# 0.01 of visibility.  0.06 leaves more than 3.5 spreads on either side.
VIS_TOL = 0.06
V6_BRACKET = (0.70, 0.78)

# The Bell statistic of a tau_i/tau_c = 0.06 stack sits slightly below the
# closed form because finite integration lowers the visibility by about
# 0.01; with |B| <= 2*sqrt(2) that moves the statistic by at most 0.01.
BELL_SYSTEMATIC = 0.01
BELL_K = 5.0

ORACLE_REL_TOL = 1e-9
C_ABS_TOL = 1e-8
FOCK_REL_TOL = 1e-6


class CheckError(AssertionError):
    """A program output disagrees with the value the benchmark expects."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ------------------------------------------------------------- generate

def check_spkl_header(raw: bytes, file_size: int, *, n_frames: int, height: int,
                      width: int, tau_ratio: float, seed: int) -> None:
    """Header fields decode to the config and the size is 36 + N*H*W*4."""
    _require(len(raw) >= SPKL_HEADER.size, "file shorter than the SPKL header")
    magic, version, n, h, w, tau, s = SPKL_HEADER.unpack(raw[:SPKL_HEADER.size])
    _require(magic == b"SPKL", f"bad magic {magic!r}")
    _require(version == 1, f"version {version}, expected 1")
    got = (n, h, w, tau, s)
    want = (n_frames, height, width, tau_ratio, seed)
    _require(got == want, f"header (n, h, w, tau, seed) = {got}, expected {want}")
    size = SPKL_HEADER.size + n_frames * height * width * 4
    _require(file_size == size, f"file is {file_size} bytes, expected {size}")


def check_rows_identical(frames: np.ndarray) -> None:
    """Every row of a frame [N, H, W] carries the same field realization."""
    _require(bool(np.array_equal(frames, np.broadcast_to(frames[:, :1, :], frames.shape))),
             "frame rows differ")


def check_mean_intensity(rows: np.ndarray, expected: float) -> None:
    """Mean intensity of rows [N, W] is within K_SIGMA standard errors of
    ``expected`` (2 * E0^2 * nbar).  Frames are independent, so the error
    comes from the spread of the per-frame means."""
    per_frame = rows.mean(axis=1, dtype=np.float64)
    mean = float(per_frame.mean())
    se = float(per_frame.std(ddof=1)) / math.sqrt(per_frame.size)
    _require(abs(mean - expected) <= K_SIGMA * se,
             f"mean intensity {mean:.6f}, expected {expected} +- {K_SIGMA}*{se:.2e}")


def check_no_first_order_fringe(rows: np.ndarray, phase: np.ndarray) -> None:
    """Column means of rows [N, W] carry no cos/sin(delta) fringe beyond
    K_SIGMA standard errors: two independent sources give a flat first-order
    intensity.  Each frame is fitted to a + b cos(delta) + c sin(delta) by
    least squares; b and c are averaged over frames."""
    design = np.stack([np.ones_like(phase), np.cos(phase), np.sin(phase)], axis=1)
    coef = rows.astype(np.float64) @ np.linalg.pinv(design).T      # [N, 3]
    mean = coef.mean(axis=0)
    se = coef.std(axis=0, ddof=1) / math.sqrt(coef.shape[0])
    for j, label in ((1, "cos"), (2, "sin")):
        _require(abs(mean[j]) <= K_SIGMA * se[j],
                 f"first-order {label} fringe {mean[j]:.5f} exceeds "
                 f"{K_SIGMA}*{se[j]:.2e} (midline {mean[0]:.4f})")


def check_prefix(stack_payload: bytes, prefix_payload: bytes) -> None:
    """A stack made with another ``chunk`` starts with the same bytes."""
    _require(len(prefix_payload) > 0, "empty prefix payload")
    _require(stack_payload[:len(prefix_payload)] == prefix_payload,
             "prefix made with a different chunk differs from the stack")


# -------------------------------------------------------------- analyze

def check_stderr(values, what: str) -> None:
    """Every standard error is finite and strictly positive."""
    arr = np.asarray(values, dtype=float)
    _require(arr.size > 0, f"{what}: no standard errors")
    _require(bool(np.all(np.isfinite(arr)) and np.all(arr > 0)),
             f"{what}: standard error not finite and > 0 (min {arr.min()})")


def check_visibility_table(vhat: dict[int, float], stderr6: float) -> None:
    """V_hat(m) rises with m, lies within VIS_TOL of m/(m+2), and V_hat(6)
    lies in the paper's [0.70, 0.78] bracket within K_SIGMA of its standard
    error ``stderr6``.

    The bracket leaves V_hat(6) only about 2.8 seed-to-seed spreads of room
    on the analyze stack, and the block bootstrap's stderr (about 0.004)
    understates that spread (about 0.014), so the allowance keeps a correct
    program passing at any seed while a V_hat(6) off by 0.1 still fails.
    """
    ms = sorted(vhat)
    _require(ms == list(range(1, 7)), f"visibility table covers m = {ms}, expected 1..6")
    for lo, hi in zip(ms, ms[1:]):
        _require(vhat[hi] > vhat[lo],
                 f"V_hat does not rise: V({hi}) = {vhat[hi]:.4f} <= V({lo}) = {vhat[lo]:.4f}")
    for m in ms:
        theory = Fraction(m, m + 2)
        _require(abs(vhat[m] - theory) <= VIS_TOL,
                 f"V_hat({m}) = {vhat[m]:.4f}, theory {theory} (tolerance {VIS_TOL})")
    lo, hi = V6_BRACKET
    slack = K_SIGMA * stderr6
    _require(lo - slack <= vhat[6] <= hi + slack,
             f"V_hat(6) = {vhat[6]:.4f} +- {K_SIGMA}*{stderr6:.4f} outside [{lo}, {hi}]")


def achieved_bracket(arguments: dict[str, float]) -> float:
    """cos(t1) - cos(t2) + cos(t3) + cos(t4) at the realized pixel phases."""
    t1, t2, t3, t4 = (arguments[k] for k in ("s1-s2", "s1-s2p", "s1p-s2", "s1p-s2p"))
    return math.cos(t1) - math.cos(t2) + math.cos(t3) + math.cos(t4)


def check_bell(report: dict, m: int) -> None:
    """The frame statistic is within BELL_K stderr (plus the integration-time
    allowance) of the four-term closed form V*B/4 - 1/2, with V = m/(m+2) and
    B averaged over the pixel realizations the grid achieved."""
    check_stderr([report["stderr"]], f"bell m={m}")
    _require(report["m"] == m, f"bell report is for m={report['m']}, expected {m}")
    brackets = [achieved_bracket(a["arguments"]) for a in report["achieved"]]
    _require(len(brackets) == report["n_realizations"] > 0, "missing achieved arguments")
    vis = m / (m + 2)
    expected = math.fsum(vis * b / 4.0 - 0.5 for b in brackets) / len(brackets)
    tol = BELL_K * report["stderr"] + BELL_SYSTEMATIC
    _require(abs(report["statistic"] - expected) <= tol,
             f"bell m={m}: statistic {report['statistic']:.5f}, closed form "
             f"{expected:.5f} (tolerance {tol:.5f})")


def check_shuffled(report: dict) -> None:
    """Shuffling frames destroys the correlation: the statistic is -1/2."""
    check_stderr([report["stderr"]], "shuffled bell")
    tol = BELL_K * report["stderr"]
    _require(abs(report["statistic"] + 0.5) <= tol,
             f"shuffled statistic {report['statistic']:.5f}, expected -0.5 +- {tol:.5f}")


# ---------------------------------------------------------------- exact

def normalized_closed_form(m: int, delta: float) -> float:
    """(m+2)!/(2(m+1)) * (1 + m/(m+2) cos delta), amplitude from integers."""
    amplitude = Fraction(math.factorial(m + 2), 2 * (m + 1))
    return float(amplitude) * (1.0 + float(Fraction(m, m + 2)) * math.cos(delta))


def oracle_rel_dev(m: int, delta: float, value: float) -> float:
    want = normalized_closed_form(m, delta)
    return abs(value - want) / want


def check_oracle_rows(rows: list[dict]) -> None:
    """Each permanent-oracle value of ``analytic --oracle`` is within 1e-9
    (relative) of the integer closed form."""
    _require(len(rows) > 0, "no oracle rows")
    for row in rows:
        m, delta = int(row["m"]), float(row["delta_rad"])
        dev = oracle_rel_dev(m, delta, float(row["oracle_plus_normalized"]))
        _require(dev <= ORACLE_REL_TOL,
                 f"oracle m={m} delta={delta:.4f}: relative deviation {dev:.2e}")


def check_cross_correlation(rows: list[dict]) -> None:
    """|C(m)| after m detections equals m/(m+2) within 1e-8."""
    _require(len(rows) > 0, "no cross-correlation rows")
    for row in rows:
        m = int(row["m"])
        dev = abs(float(row["c_abs"]) - m / (m + 2))
        _require(dev <= C_ABS_TOL, f"|C({m})| at nbar={row['nbar']}: deviation {dev:.2e}")


def gm1_closed_form(m: int, nbar: float, delta: float, field_amp: float = 1.0) -> float:
    """Raw (m+1)-th order thermal correlation
    (m+2)!/(m+1) * 2^m * E0^(2(m+1)) * nbar^(m+1) * (1 + m/(m+2) cos delta)."""
    amplitude = (Fraction(math.factorial(m + 2), m + 1) * 2**m
                 * Fraction(field_amp) ** (2 * (m + 1)) * Fraction(nbar) ** (m + 1))
    return float(amplitude) * (1.0 + float(Fraction(m, m + 2)) * math.cos(delta))


def check_fock_gm1(rows: list[dict]) -> None:
    """Fock-engine values of g^(m+1) are within 1e-6 (relative) of the
    closed form."""
    _require(len(rows) > 0, "no Fock correlation rows")
    for row in rows:
        m, nbar, delta = int(row["m"]), float(row["nbar"]), float(row["delta"])
        want = gm1_closed_form(m, nbar, delta)
        dev = abs(float(row["fock"]) - want) / want
        _require(dev <= FOCK_REL_TOL,
                 f"Fock g^({m + 1}) at nbar={nbar}, delta={delta:.4f}: deviation {dev:.2e}")


def check_angle_scan(scan: list[dict], visibility: float, step: float) -> None:
    """The scan maximum does not exceed V*2*sqrt(2)/4 - 1/2 and is within
    one grid step of it.

    A grid of step h has a point within h/2 of the optimum in each of the
    three free arguments (the fourth moves by at most 3h/2), so the bracket
    there is at most 1.5 h^2 below 2*sqrt(2), and the statistic at most
    V/4 * 1.5 h^2 below the bound.
    """
    bound = visibility * 2.0 * math.sqrt(2.0) / 4.0 - 0.5
    top = max(float(entry["statistic"]) for entry in scan)
    _require(top <= bound + 1e-12, f"scan maximum {top:.9f} exceeds the bound {bound:.9f}")
    slack = visibility / 4.0 * 1.5 * step * step
    _require(bound - top <= slack,
             f"scan maximum {top:.9f} is {bound - top:.2e} below the bound "
             f"(one grid step allows {slack:.2e})")
