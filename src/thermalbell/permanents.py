"""Independent oracle for thermal correlation formulas via matrix permanents.

For Gaussian (thermal) light the normally ordered (m+1)-th order correlation
equals the permanent of the first-order coherence matrix built over the
detector positions, with repeated positions entered as repeated rows/columns.
This route shares no code with the closed forms in :mod:`thermalbell.analytic`
and is used to cross-check them.  The permanent is evaluated by Glynn's
formula, which stays accurate to about 1e-14 on these rank-2 matrices up to
the largest supported size, 16.  Its 2^(n-1) signed row sums are built in
blocks of at most 2^BLOCK_BITS, so a call holds one block of sums (at most
2^BLOCK_BITS * n complex numbers, 1 MB at n = 16) plus 16 bytes per term.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import PermanentSizeError
from .sources import SourceKind, SourceModel

# Glynn's formula costs O(2^(n-1) * n) time; at size 16 that is about 11 ms
# on a 2-vCPU VM, with 1 MB of sums (one block) and 0.5 MB of terms, 1.75 MB
# traced in all.  Anything larger is refused.
MAX_PERMANENT_SIZE = 16

# Row sums are built in blocks of at most 2^BLOCK_BITS sign vectors.
BLOCK_BITS = 12


class PermanentCorrelation(NamedTuple):
    raw: float          # perm(J), the unnormalized correlation value
    normalized: float   # perm(J) / prod_p J[p, p]


def coherence_matrix(deltas: Sequence[float], model: SourceModel) -> np.ndarray:
    """First-order coherence matrix J[p, q] = <E-(r_p) E+(r_q)> of two
    independent thermal point sources.

    J[p, q] = E0^2 * <n> * (1 + exp(i (delta_q - delta_p))); the diagonal is
    the constant first-order correlation 2 E0^2 <n>.
    """
    if model.kind is not SourceKind.TLS:
        raise ValueError(f"coherence matrix requires a thermal model, got {model.kind.value}")
    d = np.asarray(deltas, dtype=float)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("deltas must be a nonempty 1-d sequence of phases")
    u = model.field_amp**2 * model.mean_photons
    return u * (1.0 + np.exp(1j * (d[None, :] - d[:, None])))


def permanent(matrix: np.ndarray) -> complex:
    """Permanent of a square matrix by Glynn's formula.

    perm(A) = 2^(1-n) * sum_d prod(d) * prod(d @ A) over the 2^(n-1) sign
    vectors d in {+1, -1}^n with d[0] = +1 (Glynn 2010, Eur. J. Combin. 31:1887).
    Each row sum d @ A is the chain A[0] + d[1] A[1] + ... + d[n-1] A[n-1],
    added left to right without BLAS: the same bits whatever the machine and
    its thread count.  The first rows' sums are the prefixes of blocks of at
    most 2^BLOCK_BITS sums, which the remaining rows complete in one reused
    buffer.  The terms are added with ``math.fsum``, correctly rounded in any
    order.  Complexity O(2^(n-1) * n), guarded at n <= 16.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n > MAX_PERMANENT_SIZE:
        raise PermanentSizeError(
            f"permanent of size {n} exceeds the supported maximum {MAX_PERMANENT_SIZE}")

    a = a.astype(complex)
    split = max(n - 1 - BLOCK_BITS, 0)      # rows 1..split make the prefixes
    prefixes, prefix_signs = np.empty((1 << split, n), dtype=complex), np.empty(1 << split)
    _row_sums(a[0], 1.0, a[1:split + 1], prefixes, prefix_signs)
    block = 1 << (n - 1 - split)
    sums, signs = np.empty((block, n), dtype=complex), np.empty(block)
    terms = np.empty(len(prefixes) * block, dtype=complex)
    for i, (prefix, sign) in enumerate(zip(prefixes, prefix_signs)):
        _row_sums(prefix, sign, a[split + 1:], sums, signs)
        np.multiply(signs, np.prod(sums, axis=1), out=terms[i * block:(i + 1) * block])
    # a memoryview yields plain floats, which fsum takes faster than numpy scalars
    return complex(math.fsum(memoryview(terms.real)),
                   math.fsum(memoryview(terms.imag))) / (1 << (n - 1))


def _row_sums(first: np.ndarray, sign: float, rows: np.ndarray,
              sums: np.ndarray, signs: np.ndarray) -> None:
    """Write the 2^len(rows) sums first +- rows[0] +- rows[1] ... into
    ``sums`` and their signs sign * prod(d) into ``signs``.

    Each row splits every sum so far into sum + row and sum - row; the
    signs split alike.
    """
    sums[0], signs[0] = first, sign
    for j, row in enumerate(rows):
        k = 1 << j
        np.subtract(sums[:k], row, out=sums[k:2 * k])
        sums[:k] += row
        np.negative(signs[:k], out=signs[k:2 * k])


def gm1_from_permanent(m: int, delta1: float, delta2: float,
                       model: SourceModel) -> PermanentCorrelation:
    """(m+1)-th order thermal correlation as a coherence-matrix permanent.

    The matrix is built over delta1 repeated m times plus delta2 once (literal
    row repetition; no multiplicity shortcuts).  The raw value must equal the
    closed-form correlation set; the normalized value divides by the product
    of diagonal entries, i.e. by g1^(m+1).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    J = coherence_matrix([delta1] * m + [delta2], model)
    p = permanent(J)
    diag_prod = float(np.prod(np.real(np.diag(J))))
    scale = abs(p) if abs(p) > 0 else 1.0
    if abs(p.imag) > 1e-9 * scale:
        raise ArithmeticError(f"permanent of a Hermitian PSD matrix came out complex: {p}")
    return PermanentCorrelation(raw=p.real, normalized=p.real / diag_prod)
