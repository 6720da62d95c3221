"""Exact two-mode Fock-space computations at small truncation.

Thermal and single-photon-pair states, the m-photon detection projection
(each detection applies the positive-frequency field operator, i.e. a
phase-weighted photon subtraction), normally ordered correlation
expectations, and the cross-correlation coefficient between the two source
modes after m detections.

Basis: |n1, n2> with n1, n2 < dim.  Independent phase-randomized sources
carry no coherence between total-photon-number shells, and each detection
lowers every shell by one, so every state here is block-diagonal in those
shells.  Inside a shell an entry is fixed by its row (n1, n2) and by the
number k of photons its column moves from mode 2 to mode 1, so a state is
stored as photon-number bands, a (2K+1, dim, dim) array with

    bands[K + k][n1, n2] = <n1, n2| rho |n1 + k, n2 - k>,   |k| <= K,

zero where n1 + k or n2 - k leaves [0, dim).  A thermal state has K = 0 and
each detection adds one band on either side (``_detect``), so after m
detections a state holds (2m + 1) dim^2 entries.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import UnderTruncationError, ZeroProjectionError

# Tolerances for state health checks.
HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_DEFICIT_TOL = 1e-8
TAIL_TOL = 1e-10
# Cutoff levels suggest_dim adds above the one that meets TAIL_TOL.
DIM_MARGIN = 4


@dataclass
class TwoModeState:
    """Truncated two-mode density matrix stored as photon-number bands.

    ``bands`` is the (2K+1, dim, dim) band array of the module docstring, or
    a dense (dim^2, dim^2) matrix in the basis order |n1, n2> -> n1 * dim + n2,
    which is converted on construction.  A dense matrix with an entry
    between two different photon-number shells is refused (``ValueError``),
    so the first moments <a1>, <a2> of every state vanish, as they must for
    phase-symmetric states of independent sources.
    """

    dim: int
    bands: np.ndarray

    def __post_init__(self) -> None:
        bands = np.asarray(self.bands, dtype=complex)
        if bands.ndim == 2:
            bands = _bands_from_dense(bands, self.dim)
        if bands.ndim != 3 or bands.shape[0] % 2 == 0 \
                or bands.shape[1:] != (self.dim, self.dim):
            raise ValueError(f"bands of shape {bands.shape} do not fit dim={self.dim}")
        self.bands = bands

    def _shells(self):
        """The dense block of each photon-number shell N = n1 + n2, in
        increasing N; row and column i of a block is |n1_i, N - n1_i> with
        n1_i increasing."""
        dim, half = self.dim, len(self.bands) // 2
        for shell in range(2 * dim - 1):
            n1 = np.arange(max(0, shell - dim + 1), min(shell, dim - 1) + 1)
            k = n1[None, :] - n1[:, None]
            row = np.broadcast_to(n1[:, None], k.shape)
            yield np.where(np.abs(k) <= half,
                           self.bands[np.clip(k, -half, half) + half, row, shell - row], 0)

    def validate(self) -> None:
        """Check Hermiticity, positive semidefiniteness, and unit trace,
        shell by shell."""
        trace = 0.0
        for block in self._shells():
            if not np.allclose(block, block.conj().T, atol=HERMITICITY_TOL, rtol=0.0):
                raise ValueError("density matrix is not Hermitian")
            lowest = np.linalg.eigvalsh(block).min()
            if lowest < -PSD_TOL:
                raise ValueError(f"density matrix has negative eigenvalue {lowest}")
            trace += np.trace(block).real
        if abs(trace - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace is {trace}, not 1")

    def occupation(self, mode: int) -> float:
        """Mean photon number <a_mode^dag a_mode>."""
        n = np.arange(self.dim, dtype=float)
        weight = n[:, None] if mode == 0 else n[None, :]
        return float(np.sum(weight * self.bands[len(self.bands) // 2].real))


def _bands_from_dense(rho: np.ndarray, dim: int) -> np.ndarray:
    """Band array of a dense (dim^2, dim^2) matrix that couples no two shells."""
    if rho.shape != (dim * dim, dim * dim):
        raise ValueError(f"dense state of shape {rho.shape} does not fit dim={dim}")
    rho = rho.reshape(dim, dim, dim, dim)
    p1, p2, q1, q2 = np.nonzero(rho)
    if np.any(p1 + p2 != q1 + q2):
        raise ValueError("density matrix couples different photon-number shells")
    half = int(np.max(np.abs(q1 - p1), initial=0))
    k = np.arange(-half, half + 1)[:, None, None]
    n1 = np.arange(dim)[None, :, None]
    n2 = np.arange(dim)[None, None, :]
    inside = (n1 + k >= 0) & (n1 + k < dim) & (n2 - k >= 0) & (n2 - k < dim)
    return np.where(inside, rho[n1, n2, np.clip(n1 + k, 0, dim - 1),
                                np.clip(n2 - k, 0, dim - 1)], 0)


def _detect(bands: np.ndarray, delta: float, scale: float) -> np.ndarray:
    """Bands of E+ rho E- for one detection at phase ``delta``, with
    E+ = scale * (a1 + e^{i delta} a2): each entry gathers four shifted
    entries of rho, and the result has one more band on either side."""
    count, dim, _ = bands.shape
    n = np.arange(dim)
    k = np.arange(-(count // 2), count // 2 + 1)[:, None]  # input band of each row
    root = np.sqrt(np.maximum(n + k, 0))      # [k, n] -> sqrt(n + k)
    root_neg = np.sqrt(np.maximum(n - k, 0))  # [k, n] -> sqrt(n - k)
    step = scale * scale * np.sqrt(n[1:])     # sqrt(n + 1) for n < dim - 1
    phase = np.exp(1j * delta)
    out = np.zeros((count + 2, dim, dim), dtype=complex)
    # Output band j at (n1, n2), <n1, n2| E+ rho E- |n1 + j, n2 - j>, gathers
    #   a1 rho a1^dag:            <n1 + 1, n2| rho |n1 + j + 1, n2 - j>  (band j)
    #   a2 rho a2^dag:            <n1, n2 + 1| rho |n1 + j, n2 - j + 1>  (band j)
    #   e^{-i delta} a1 rho a2^dag: <n1 + 1, n2| rho |n1 + j, n2 - j + 1>  (band j - 1)
    #   e^{i delta} a2 rho a1^dag:  <n1, n2 + 1| rho |n1 + j + 1, n2 - j>  (band j + 1)
    # each times the square roots of the photon numbers removed; below, the
    # input band k is j, j, j - 1 and j + 1.
    _gather(out[1:-1, :-1], bands[:, 1:], step[:, None], root[:, 1:, None])
    _gather(out[1:-1, :, :-1], bands[:, :, 1:], step, root_neg[:, None, 1:])
    _gather(out[2:, :-1], bands[:, 1:], np.conj(phase) * step[:, None], root_neg[:, None, :])
    _gather(out[:-2, :, :-1], bands[:, :, 1:], phase * step, root[:, :, None])
    return out


def _gather(target: np.ndarray, source: np.ndarray, row, col) -> None:
    """target += source * row * col, with one temporary the size of source."""
    term = source * row
    term *= col
    target += term


def thermal_state(mean_photons: float, dim: int) -> TwoModeState:
    """Product of two single-mode thermal states with equal mean photon number.

    Per-mode weights p(n) are geometric with ratio nbar/(1+nbar); the state is
    renormalized after truncation and rejected when the lost tail mass exceeds
    the tolerance.
    """
    _check_mean_photons(mean_photons)
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    q = mean_photons / (1.0 + mean_photons)
    # q^n by repeated IEEE multiplication: numpy's SIMD power and libm's pow
    # can differ in the last bit from one CPU to the next
    powers = itertools.accumulate(itertools.repeat(q, dim - 1), operator.mul, initial=1.0)
    weights = np.fromiter(powers, float, dim) / (1.0 + mean_photons)
    per_mode_mass = float(weights.sum())
    deficit = 1.0 - per_mode_mass**2
    if deficit > TRACE_DEFICIT_TOL:
        suggested = suggest_dim(mean_photons, 0)
        raise UnderTruncationError(
            f"thermal state at nbar={mean_photons} loses {deficit:.3e} trace mass "
            f"at dim={dim}; use dim >= {suggested}", suggested_dim=suggested)
    diag = np.kron(weights, weights)
    diag /= diag.sum()
    return TwoModeState(dim=dim, bands=diag.astype(complex).reshape(1, dim, dim))


def spe_state(dim: int = 2) -> TwoModeState:
    """Pure |1, 1> state of two single-photon emitters."""
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    bands = np.zeros((1, dim, dim), dtype=complex)
    bands[0, 1, 1] = 1.0
    return TwoModeState(dim=dim, bands=bands)


def state_nbytes(dim: int, detections: int) -> int:
    """Bytes of the bands of a thermal state at cutoff ``dim`` after
    ``detections`` detections."""
    return (2 * detections + 1) * dim * dim * np.dtype(complex).itemsize


def project_m(state: TwoModeState, delta1: float, m: int,
              field_amp: float = 1.0) -> TwoModeState:
    """State after m photon detections at phase delta1.

    rho(m) = E+(delta1)^m rho E-(delta1)^m / trace.  Raises on vanishing
    detection probability.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    bands = state.bands
    for _ in range(m):
        bands = _detect(bands, delta1, field_amp)
    half = len(bands) // 2
    norm = float(bands[half].real.sum())
    if norm < 1e-300:
        raise ZeroProjectionError(
            f"projection of {m} detections has vanishing probability (trace {norm})")
    bands /= norm
    # (rho + rho^dag) / 2: the diagonal keeps its real part, and band k and
    # band -k hold each other's mirror entries (none once |k| >= dim)
    bands[half] = bands[half].real
    dim = state.dim
    for k in range(1, min(half + 1, dim)):
        upper = bands[half + k, :dim - k, k:]
        lower = bands[half - k, k:, :dim - k]
        upper += lower.conj()
        upper *= 0.5
        lower[...] = upper.conj()
    return TwoModeState(dim=dim, bands=bands)


def cross_corr(state: TwoModeState) -> complex:
    """Cross-correlation coefficient <a1^dag a2> / sqrt(<n1> <n2>) between the
    two source modes, read from the diagonal and the k = +1 band.

    The first moments <a1>, <a2> vanish by construction: no state couples
    two photon-number shells.
    """
    n1 = state.occupation(0)
    n2 = state.occupation(1)
    if min(n1, n2) < 1e-300:
        raise ZeroDivisionError("source-mode occupation vanishes; coefficient undefined")
    half = len(state.bands) // 2
    if half == 0:
        return 0j
    n = np.arange(state.dim, dtype=float)
    hop = complex(np.sum(np.sqrt((n[:, None] + 1) * n[None, :]) * state.bands[half + 1]))
    return hop / math.sqrt(n1 * n2)


def expect_gm1(state: TwoModeState, m: int, delta1: float, delta2: float,
               field_amp: float = 1.0) -> float:
    """Normally ordered correlation <E-(d1)^m E-(d2) E+(d2) E+(d1)^m>.

    m = 0 reduces to the first-order correlation at delta2.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    bands = state.bands
    for _ in range(m):
        bands = _detect(bands, delta1, field_amp)
    bands = _detect(bands, delta2, field_amp)
    value = complex(bands[len(bands) // 2].sum())
    scale = max(abs(value), 1.0)
    if abs(value.imag) > 1e-9 * scale:
        raise ArithmeticError(f"correlation expectation came out complex: {value}")
    return value.real


def _check_mean_photons(mean_photons: float) -> None:
    if not (math.isfinite(mean_photons) and mean_photons > 0):
        raise ValueError(f"mean_photons must be finite and > 0, got {mean_photons}")


def suggest_dim(mean_photons: float, m: int) -> int:
    """Smallest per-mode cutoff keeping the m-detection-weighted geometric
    tail below TAIL_TOL.

    After m detections the relevant per-mode weights scale like
    binom(n+m, m) * q^n; the first cutoff whose remaining tail (geometric
    bound) is below TAIL_TOL is returned, plus DIM_MARGIN.
    """
    _check_mean_photons(mean_photons)
    q = mean_photons / (1.0 + mean_photons)
    log_q = math.log(q)
    total = 0.0
    terms = []
    for n in range(2000):
        log_w = math.lgamma(n + m + 1) - math.lgamma(n + 1) - math.lgamma(m + 1) + n * log_q
        w = math.exp(log_w)
        terms.append(w)
        total += w
        if n > m + 2 and w / total < TAIL_TOL * (1.0 - q) / 10.0:
            break
    total = math.fsum(terms)
    acc = 0.0
    for n, w in enumerate(terms):
        acc += w
        if 1.0 - acc / total < TAIL_TOL:
            return n + 1 + DIM_MARGIN
    return len(terms) + DIM_MARGIN  # pragma: no cover


def cm_coefficient(mean_photons: float, m: int, delta1: float,
                   dim: int | None = None, field_amp: float = 1.0) -> complex:
    """Cross-correlation coefficient after m detections on a thermal pair.

    Pipeline thermal_state -> project_m -> cross_corr at cutoff ``dim``,
    by default ``suggest_dim(mean_photons, m)``.  A smaller cutoff is
    refused before any state is built: the projection lowers photon numbers,
    so the truncated tail biases the result without ever showing in the
    projected state's top shell.  A mean photon number that is not finite
    and > 0 is refused with ``ValueError``.
    """
    suggested = suggest_dim(mean_photons, m)
    dim = suggested if dim is None else dim
    if dim < suggested:
        raise UnderTruncationError(
            f"dim={dim} truncates the {m}-detection tail at nbar={mean_photons}; "
            f"use dim >= {suggested}", suggested_dim=suggested)
    state = thermal_state(mean_photons, dim)
    return cross_corr(project_m(state, delta1, m, field_amp))
