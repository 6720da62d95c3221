"""Exact two-mode Fock-space computations at small truncation.

Thermal and single-photon-pair states, the m-photon detection projection
(each detection applies the positive-frequency field operator, i.e. a
phase-weighted photon subtraction), normally ordered correlation
expectations, and the cross-correlation coefficient between the two source
modes after m detections.

Basis ordering: |n1, n2> maps to index n1 * dim + n2, with n1, n2 < dim.
Density matrices and operators are both scipy CSR matrices.  Independent
phase-randomized sources carry no coherence between total-photon-number
shells and each detection lowers every shell by one, so every state built
here stays block-diagonal in those shells.  Every trace tr(op rho) goes
through ``_expect``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

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
    """Truncated two-mode density matrix, stored sparse (CSR).

    ``matrix`` accepts anything ``sparse.csr_matrix`` does and is converted
    on construction.
    """

    dim: int
    matrix: sparse.csr_matrix

    def __post_init__(self) -> None:
        self.matrix = sparse.csr_matrix(self.matrix)

    def validate(self) -> None:
        """Check Hermiticity, positive semidefiniteness, and unit trace."""
        rho = self.matrix.toarray()
        if not np.allclose(rho, rho.conj().T, atol=HERMITICITY_TOL, rtol=0.0):
            raise ValueError("density matrix is not Hermitian")
        eigs = np.linalg.eigvalsh(rho)
        if eigs.min() < -PSD_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {eigs.min()}")
        if abs(np.trace(rho).real - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace is {np.trace(rho).real}, not 1")

    def occupation(self, mode: int) -> float:
        """Mean photon number <a_mode^dag a_mode>."""
        return _expect(_mode_ops(self.dim)[3 + mode], self.matrix).real


def _expect(op: sparse.spmatrix, rho: sparse.spmatrix) -> complex:
    """tr(op rho), summed over the entries where op and rho^T are both nonzero."""
    return complex(op.multiply(rho.T).sum())


@functools.lru_cache(maxsize=8)
def _mode_ops(dim: int) -> tuple[sparse.csr_matrix, ...]:
    """(a1, a2, a1^dag a2, n1, n2) at cutoff ``dim``, built once per cutoff;
    callers only read them."""
    eye = sparse.identity(dim, format="csr")
    a = sparse.diags(np.sqrt(np.arange(1, dim)), 1, format="csr")
    n = sparse.diags(np.arange(dim, dtype=float), format="csr")
    a1, a2, n1, n2 = (sparse.kron(x, y, format="csr")
                      for x, y in ((a, eye), (eye, a), (n, eye), (eye, n)))
    return a1, a2, a1.conj().T @ a2, n1, n2


def field_op(dim: int, delta: float, scale: float = 1.0) -> sparse.csr_matrix:
    """Positive-frequency field operator E+(delta) = scale * (a1 + e^{i delta} a2)."""
    a1, a2 = _mode_ops(dim)[:2]
    return (scale * (a1 + np.exp(1j * delta) * a2)).tocsr()


def thermal_state(mean_photons: float, dim: int) -> TwoModeState:
    """Product of two single-mode thermal states with equal mean photon number.

    Per-mode weights p(n) are geometric with ratio nbar/(1+nbar); the state is
    renormalized after truncation and rejected when the lost tail mass exceeds
    the tolerance.
    """
    if mean_photons <= 0:
        raise ValueError(f"mean_photons must be > 0, got {mean_photons}")
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    q = mean_photons / (1.0 + mean_photons)
    weights = (q ** np.arange(dim)) / (1.0 + mean_photons)
    per_mode_mass = float(weights.sum())
    deficit = 1.0 - per_mode_mass**2
    if deficit > TRACE_DEFICIT_TOL:
        suggested = suggest_dim(mean_photons, 0)
        raise UnderTruncationError(
            f"thermal state at nbar={mean_photons} loses {deficit:.3e} trace mass "
            f"at dim={dim}; use dim >= {suggested}", suggested_dim=suggested)
    diag = np.kron(weights, weights)
    diag /= diag.sum()
    return TwoModeState(dim=dim, matrix=sparse.diags(diag.astype(complex), format="csr"))


def spe_state(dim: int = 2) -> TwoModeState:
    """Pure |1, 1> state of two single-photon emitters."""
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    idx = 1 * dim + 1
    rho = sparse.csr_matrix(([1.0 + 0j], ([idx], [idx])), shape=(dim * dim, dim * dim))
    return TwoModeState(dim=dim, matrix=rho)


def project_m(state: TwoModeState, delta1: float, m: int,
              field_amp: float = 1.0) -> TwoModeState:
    """State after m photon detections at phase delta1.

    rho(m) = E+(delta1)^m rho E-(delta1)^m / trace.  Raises on vanishing
    detection probability.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    ep = field_op(state.dim, delta1, field_amp)
    epm = ep
    for _ in range(m - 1):
        epm = (epm @ ep).tocsr()
    rho = epm @ state.matrix @ epm.conj().T
    norm = float(rho.diagonal().sum().real)
    if norm < 1e-300:
        raise ZeroProjectionError(
            f"projection of {m} detections has vanishing probability (trace {norm})")
    rho = rho / norm
    rho = 0.5 * (rho + rho.conj().T)
    return TwoModeState(dim=state.dim, matrix=rho)


def cross_corr(state: TwoModeState) -> complex:
    """Cross-correlation coefficient <a1^dag a2> / sqrt(<n1> <n2>) between the
    two source modes.

    Also asserts that the first moments <a1>, <a2> vanish, as they must for
    phase-symmetric states of independent sources.
    """
    a1, a2, hop, _, _ = _mode_ops(state.dim)
    rho = state.matrix
    for label, op in (("a1", a1), ("a2", a2)):
        moment = _expect(op, rho)
        if abs(moment) > 1e-12:
            raise ValueError(f"first moment <{label}> = {moment} does not vanish")

    n1 = state.occupation(0)
    n2 = state.occupation(1)
    if min(n1, n2) < 1e-300:
        raise ZeroDivisionError("source-mode occupation vanishes; coefficient undefined")
    return _expect(hop, rho) / math.sqrt(n1 * n2)


def expect_gm1(state: TwoModeState, m: int, delta1: float, delta2: float,
               field_amp: float = 1.0) -> float:
    """Normally ordered correlation <E-(d1)^m E-(d2) E+(d2) E+(d1)^m>.

    m = 0 reduces to the first-order correlation at delta2.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    op = field_op(state.dim, delta2, field_amp)
    e1 = field_op(state.dim, delta1, field_amp)
    for _ in range(m):
        op = (op @ e1).tocsr()
    # sum_ij conj(op_ij) (op rho)_ij over the nonzeros of op only: no dense
    # copy of op, and no BLAS dot, whose thread count moves the last digits.
    value = complex(op.conj().multiply(op @ state.matrix).sum())
    scale = max(abs(value), 1.0)
    if abs(value.imag) > 1e-9 * scale:
        raise ArithmeticError(f"correlation expectation came out complex: {value}")
    return value.real


def suggest_dim(mean_photons: float, m: int) -> int:
    """Smallest per-mode cutoff keeping the m-detection-weighted geometric
    tail below TAIL_TOL.

    After m detections the relevant per-mode weights scale like
    binom(n+m, m) * q^n; the first cutoff whose remaining tail (geometric
    bound) is below TAIL_TOL is returned, plus DIM_MARGIN.
    """
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
    projected state's top shell.
    """
    suggested = suggest_dim(mean_photons, m)
    dim = suggested if dim is None else dim
    if dim < suggested:
        raise UnderTruncationError(
            f"dim={dim} truncates the {m}-detection tail at nbar={mean_photons}; "
            f"use dim >= {suggested}", suggested_dim=suggested)
    state = thermal_state(mean_photons, dim)
    return cross_corr(project_m(state, delta1, m, field_amp))
