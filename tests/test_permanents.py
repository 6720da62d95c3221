import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermalbell import analytic, permanents
from thermalbell.errors import PermanentSizeError
from thermalbell.sources import spe, tls

MODEL = tls(1.0, 1.0)


def permanent_by_definition(a: np.ndarray) -> complex:
    n = a.shape[0]
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        total += np.prod([a[i, perm[i]] for i in range(n)])
    return total


def _reference_permanent(matrix: np.ndarray) -> complex:
    """Glynn's formula with all 2^(n-1) row sums in one buffer, one row of A
    at a time: the form ``permanent`` had before it worked in blocks."""
    a = np.asarray(matrix).astype(complex)
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    sums = np.empty((1 << (n - 1), n), dtype=complex)
    signs = np.empty(1 << (n - 1))
    sums[0], signs[0] = a[0], 1.0
    for j in range(1, n):
        k = 1 << (j - 1)
        np.subtract(sums[:k], a[j], out=sums[k:2 * k])
        sums[:k] += a[j]
        np.negative(signs[:k], out=signs[k:2 * k])
    terms = signs * np.prod(sums, axis=1)
    return complex(math.fsum(terms.real), math.fsum(terms.imag)) / (1 << (n - 1))


class TestPermanent:
    def test_identity(self):
        assert permanents.permanent(np.eye(3)) == pytest.approx(1.0)

    def test_all_ones(self):
        assert permanents.permanent(np.ones((2, 2))) == pytest.approx(2.0)
        assert permanents.permanent(np.ones((3, 3))) == pytest.approx(6.0)

    def test_two_by_two_hermitian(self):
        mu = 0.3 + 0.4j
        a = np.array([[1.0, mu], [np.conj(mu), 1.0]])
        assert permanents.permanent(a) == pytest.approx(1 + abs(mu) ** 2)

    def test_empty_matrix(self):
        assert permanents.permanent(np.zeros((0, 0))) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_definition(self, n, rng):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        got = permanents.permanent(a)
        want = permanent_by_definition(a)
        assert got == pytest.approx(want, rel=1e-10)

    def test_size_guard(self):
        with pytest.raises(PermanentSizeError):
            permanents.permanent(np.eye(17))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            permanents.permanent(np.ones((2, 3)))

    def test_sizes_cover_one_and_several_blocks(self):
        assert permanents.BLOCK_BITS + 2 <= permanents.MAX_PERMANENT_SIZE

    @pytest.mark.parametrize("n", range(permanents.MAX_PERMANENT_SIZE + 1))
    def test_blocks_give_the_one_buffer_bits(self, n, rng):
        """Sizes up to BLOCK_BITS + 1 take one block, larger ones
        2^(n - 1 - BLOCK_BITS): every row sum is the same chain of additions
        and fsum is correctly rounded, so the value is bitwise the same."""
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert permanents.permanent(a) == _reference_permanent(a)
        if n:
            J = permanents.coherence_matrix(rng.uniform(-math.pi, math.pi, n), MODEL)
            assert permanents.permanent(J) == _reference_permanent(J)

    def test_size_16_memory_is_one_block(self, rng):
        """One block of sums (1 MB) plus the terms (0.5 MB): 1.75 MB traced
        on numpy 2.4, against 9.31 MB for all sums in one buffer."""
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        tracemalloc.start()
        try:
            permanents.permanent(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6


class TestCoherenceMatrix:
    def test_coincident_detectors(self):
        J = permanents.coherence_matrix([0.0, 0.0], MODEL)
        assert np.allclose(J, 2.0)

    def test_opposite_detectors(self):
        J = permanents.coherence_matrix([0.0, math.pi], MODEL)
        assert np.allclose(np.diag(J), 2.0)
        assert abs(J[0, 1]) == pytest.approx(0.0, abs=1e-15)

    def test_off_diagonal_magnitude(self):
        for delta in np.linspace(-3, 3, 13):
            J = permanents.coherence_matrix([0.0, delta], MODEL)
            assert abs(J[0, 1]) / J[0, 0].real == pytest.approx(
                abs(math.cos(delta / 2)), abs=1e-12)

    def test_hermitian(self):
        J = permanents.coherence_matrix([0.1, 0.9, -2.0], MODEL)
        assert np.allclose(J, J.conj().T)

    def test_rejects_non_thermal(self):
        with pytest.raises(ValueError):
            permanents.coherence_matrix([0.0, 1.0], spe())

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            permanents.coherence_matrix([], MODEL)


class TestGm1FromPermanent:
    def test_m1_peak(self):
        assert permanents.gm1_from_permanent(1, 0.0, 0.0, MODEL).normalized == \
            pytest.approx(2.0)

    def test_m1_trough(self):
        assert permanents.gm1_from_permanent(1, math.pi, 0.0, MODEL).normalized == \
            pytest.approx(1.0)

    def test_m6_fringe(self):
        assert permanents.gm1_from_permanent(6, 0.0, 0.0, MODEL).normalized == \
            pytest.approx(5040.0, rel=1e-10)
        assert permanents.gm1_from_permanent(6, math.pi / 2, 0.0, MODEL).normalized == \
            pytest.approx(2880.0, rel=1e-10)

    def test_raw_equals_closed_form(self):
        model = tls(0.4, 1.2)
        for m in (1, 2, 3):
            for d in (0.0, 0.8, 2.5):
                raw = permanents.gm1_from_permanent(m, d, 0.1, model).raw
                want = analytic.gm1_tls_set(m, d, 0.1, model).values[analytic.PAIR_DD]
                assert raw == pytest.approx(want, rel=1e-10)

    def test_visibility_extracted_from_fringe(self):
        for m in range(1, 9):
            peak = permanents.gm1_from_permanent(m, 0.0, 0.0, MODEL).normalized
            trough = permanents.gm1_from_permanent(m, math.pi, 0.0, MODEL).normalized
            vis = (peak - trough) / (peak + trough)
            assert vis == pytest.approx(m / (m + 2), rel=1e-10)

    def test_exact_at_sizes_15_and_16(self):
        """m = 14, 15 at 8 phases in [-pi, pi] (the benchmark's oracle sweep)
        against the integer closed form (m+2)!/(2(m+1)) * (1 + m/(m+2) cos d)."""
        for m in (14, 15):
            for delta in np.linspace(-math.pi, math.pi, 8):
                delta = float(delta)
                want = (Fraction(math.factorial(m + 2), 2 * (m + 1))
                        * (1 + Fraction(m, m + 2) * Fraction(math.cos(delta))))
                got = permanents.gm1_from_permanent(m, delta, 0.0, MODEL).normalized
                assert abs(Fraction(got) - want) <= Fraction(1e-12) * want
                p = permanents.permanent(permanents.coherence_matrix([delta] * m + [0.0], MODEL))
                assert abs(p.imag) <= 1e-12 * abs(p)

    def test_order_guard(self):
        with pytest.raises(PermanentSizeError):
            permanents.gm1_from_permanent(16, 0.0, 0.0, MODEL)

    @given(deltas=st.lists(st.floats(-6.0, 6.0), min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_permanent_of_coherence_matrix_real_nonnegative(self, deltas):
        J = permanents.coherence_matrix(deltas, MODEL)
        p = permanents.permanent(J)
        assert abs(p.imag) <= 1e-9 * max(abs(p), 1.0)
        assert p.real >= -1e-9
