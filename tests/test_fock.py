import math
import tracemalloc

import numpy as np
import pytest

from thermalbell import analytic, fock, permanents
from thermalbell.errors import UnderTruncationError, ZeroProjectionError
from thermalbell.sources import tls


def _vacuum(dim: int) -> fock.TwoModeState:
    rho = np.zeros((dim * dim, dim * dim), dtype=complex)
    rho[0, 0] = 1.0
    return fock.TwoModeState(dim, rho)


def _dense(state: fock.TwoModeState) -> np.ndarray:
    """The (dim^2, dim^2) matrix of a band state, basis |n1, n2> -> n1 * dim + n2."""
    dim, half = state.dim, len(state.bands) // 2
    rho = np.zeros((dim,) * 4, dtype=complex)
    for k in range(-half, half + 1):
        for n1 in range(max(0, -k), min(dim, dim - k)):
            for n2 in range(max(0, k), min(dim, dim + k)):
                rho[n1, n2, n1 + k, n2 - k] = state.bands[half + k, n1, n2]
    return rho.reshape(dim * dim, dim * dim)


# The dense engine the band engine replaced: field operators as Kronecker
# products, rho(m) = E+^m rho E-^m / trace, and tr(op rho op^dag).

def _reference_field(dim: int, delta: float, scale: float = 1.0) -> np.ndarray:
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    eye = np.eye(dim)
    return scale * (np.kron(a, eye) + np.exp(1j * delta) * np.kron(eye, a))


def _reference_project(rho: np.ndarray, dim: int, delta1: float, m: int,
                       scale: float = 1.0) -> np.ndarray:
    epm = np.linalg.matrix_power(_reference_field(dim, delta1, scale), m)
    rho = epm @ rho @ epm.conj().T
    rho = rho / np.trace(rho).real
    return 0.5 * (rho + rho.conj().T)


def _reference_gm1(rho: np.ndarray, dim: int, m: int, delta1: float, delta2: float,
                   scale: float = 1.0) -> complex:
    op = _reference_field(dim, delta2, scale) @ np.linalg.matrix_power(
        _reference_field(dim, delta1, scale), m)
    return np.trace(op @ rho @ op.conj().T)


def _random_shell_state(dim: int, seed: int) -> np.ndarray:
    """A dense density matrix with a random positive block in every
    photon-number shell and nothing between shells."""
    rng = np.random.default_rng(seed)
    rho = np.zeros((dim * dim, dim * dim), dtype=complex)
    for shell in range(2 * dim - 1):
        index = [n1 * dim + shell - n1 for n1 in range(max(0, shell - dim + 1),
                                                        min(shell, dim - 1) + 1)]
        root = rng.normal(size=(len(index),) * 2) + 1j * rng.normal(size=(len(index),) * 2)
        rho[np.ix_(index, index)] = root @ root.conj().T * 0.5 ** shell
    return rho / np.trace(rho).real


class TestThermalState:
    def test_mean_photon_number(self):
        state = fock.thermal_state(0.2, 15)
        assert state.occupation(0) == pytest.approx(0.2, abs=1e-9)
        assert state.occupation(1) == pytest.approx(0.2, abs=1e-9)

    def test_near_vacuum_limit(self):
        state = fock.thermal_state(1e-12, 4)
        assert state.bands[0, 0, 0].real == pytest.approx(1.0, abs=1e-11)

    def test_mode_exchange_symmetry(self):
        state = fock.thermal_state(0.3, 20)
        rho = _dense(state).reshape(20, 20, 20, 20)
        assert np.allclose(rho, rho.transpose(1, 0, 3, 2))

    def test_health(self):
        fock.thermal_state(0.2, 15).validate()

    def test_under_truncation_rejected(self):
        with pytest.raises(UnderTruncationError) as err:
            fock.thermal_state(2.0, 4)
        assert err.value.suggested_dim is not None

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            fock.thermal_state(0.0, 10)
        with pytest.raises(ValueError):
            fock.thermal_state(0.2, 1)

    @pytest.mark.parametrize("nbar", [math.nan, math.inf, -math.inf, -1.0, 0.0])
    def test_rejects_mean_photons_not_finite_and_positive(self, nbar):
        for call in (lambda: fock.thermal_state(nbar, 10), lambda: fock.suggest_dim(nbar, 1),
                     lambda: fock.cm_coefficient(nbar, 1, 0.0)):
            with pytest.raises(ValueError, match="finite and > 0"):
                call()


class TestSpeState:
    def test_total_photon_number(self):
        state = fock.spe_state(3)
        assert state.occupation(0) + state.occupation(1) == pytest.approx(2.0)

    def test_purity(self):
        rho = _dense(fock.spe_state(4))
        assert np.trace(rho @ rho).real == pytest.approx(1.0)

    def test_reproduces_spe_interference(self):
        state = fock.spe_state(3)
        for d in np.linspace(-math.pi, math.pi, 11):
            got = fock.expect_gm1(state, 1, d, 0.0)
            want = analytic.g2_spe_set(d, 0.0).values[analytic.PAIR_DD]
            assert got == pytest.approx(want, abs=1e-10)


class TestProjection:
    def test_detected_mode_occupation_doubles(self):
        nbar, delta = 0.2, 0.45
        state = fock.thermal_state(nbar, 20)
        projected = fock.project_m(state, delta, 1)
        # occupation of the detected mode (a1 + e^{i delta} a2)/sqrt(2)
        g1_after = fock.expect_gm1(projected, 0, 0.0, delta)
        assert g1_after / 2.0 == pytest.approx(2 * nbar, rel=1e-8)

    def test_source_mode_occupation(self):
        nbar, m = 0.2, 2
        projected = fock.project_m(fock.thermal_state(nbar, 24), 0.9, m)
        assert projected.occupation(0) == pytest.approx((m + 2) * nbar / 2, rel=1e-8)
        assert projected.occupation(1) == pytest.approx((m + 2) * nbar / 2, rel=1e-8)

    def test_projection_on_vacuum_fails(self):
        with pytest.raises(ZeroProjectionError):
            fock.project_m(_vacuum(6), 0.0, 1)

    def test_global_phase_invariance(self):
        state = fock.thermal_state(0.2, 16)
        projected = fock.project_m(state, 0.7, 2)
        # global U(1) phase on both modes: rho -> U rho U^dag with U diagonal
        dim = state.dim
        total_n = (np.repeat(np.arange(dim), dim) + np.tile(np.arange(dim), dim))
        u = np.exp(1j * 0.613 * total_n)
        rho_in = _dense(state)
        rotated_in = fock.TwoModeState(dim, (u[:, None] * rho_in) * np.conj(u)[None, :])
        rotated_out = fock.project_m(rotated_in, 0.7, 2)
        expected = (u[:, None] * _dense(projected)) * np.conj(u)[None, :]
        assert np.allclose(_dense(rotated_out), expected, atol=1e-12)

    def test_state_stays_healthy(self):
        projected = fock.project_m(fock.thermal_state(0.2, 20), 1.3, 3)
        projected.validate()


class TestCrossCorrelation:
    def test_unprojected_thermal_uncorrelated(self):
        assert abs(fock.cross_corr(fock.thermal_state(0.2, 12))) == \
            pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_projection_coefficient(self, m):
        c = fock.cm_coefficient(0.2, m, 0.3)
        assert abs(c) == pytest.approx(m / (m + 2), abs=1e-9)

    def test_independent_of_nbar_and_phase(self):
        values = [abs(fock.cm_coefficient(nbar, 2, d1))
                  for nbar in (0.05, 0.2) for d1 in (0.0, 1.3)]
        assert np.ptp(values) <= 1e-8

    def test_rejects_vanishing_occupation(self):
        with pytest.raises(ZeroDivisionError):
            fock.cross_corr(_vacuum(3))


class TestExpectGm1:
    def test_m0_is_first_order(self):
        state = fock.thermal_state(0.3, 20)
        got = fock.expect_gm1(state, 0, 0.0, 1.7)
        assert got == pytest.approx(analytic.g1(tls(0.3)), rel=1e-9)

    def test_thermal_second_order(self):
        state = fock.thermal_state(0.3, 18)
        model = tls(0.3)
        for d in np.linspace(0, math.pi, 7):
            got = fock.expect_gm1(state, 1, d, 0.0)
            want = analytic.g2_tls_set(d, 0.0, model).values[analytic.PAIR_DD]
            assert got == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_three_way_agreement(self, m):
        """Fock expectation, closed form, and permanent oracle must agree."""
        nbar = 0.2
        state = fock.thermal_state(nbar, fock.suggest_dim(nbar, m + 1))
        model = tls(nbar)
        for d in (0.0, 0.9, 2.2):
            from_fock = fock.expect_gm1(state, m, d, 0.0)
            closed = analytic.gm1_tls_set(m, d, 0.0, model).values[analytic.PAIR_DD]
            from_perm = permanents.gm1_from_permanent(m, d, 0.0, model).raw
            assert from_fock == pytest.approx(closed, rel=1e-6)
            assert from_perm == pytest.approx(closed, rel=1e-10)

    def test_field_amp_scaling(self):
        state = fock.thermal_state(0.2, 14)
        base = fock.expect_gm1(state, 1, 0.4, 0.0, field_amp=1.0)
        scaled = fock.expect_gm1(state, 1, 0.4, 0.0, field_amp=2.0)
        assert scaled == pytest.approx(base * 2 ** 4, rel=1e-12)


class TestSuggestDim:
    def test_tail_below_tolerance(self):
        for nbar, m in ((0.05, 1), (0.2, 4)):
            dim = fock.suggest_dim(nbar, m)
            q = nbar / (1 + nbar)
            # weighted geometric tail beyond the cutoff stays tiny
            n = np.arange(dim, dim + 200)
            tail = np.sum(np.exp(
                [math.lgamma(k + m + 1) - math.lgamma(k + 1) - math.lgamma(m + 1)
                 + k * math.log(q) for k in n]))
            total = np.sum(np.exp(
                [math.lgamma(k + m + 1) - math.lgamma(k + 1) - math.lgamma(m + 1)
                 + k * math.log(q) for k in range(dim + 200)]))
            assert tail / total < 1e-9

    def test_grows_with_m(self):
        assert fock.suggest_dim(0.2, 6) > fock.suggest_dim(0.2, 1)


class TestValuePins:
    """Values measured before states were stored sparse; the rewrite keeps
    them to 1e-14 relative."""

    def test_cm_coefficient_pins(self):
        assert abs(fock.cm_coefficient(0.5, 4, 1.3)) == \
            pytest.approx(0.6666666667099047, rel=1e-14)
        assert abs(fock.cm_coefficient(0.05, 2, 0.0)) == \
            pytest.approx(0.5000000000027769, rel=1e-14)

    def test_expect_gm1_pin(self):
        got = fock.expect_gm1(fock.thermal_state(0.5, 35), 4, 0.9, 0.0)
        assert got == pytest.approx(101.8372784746425, rel=1e-14)


class TestBandStates:
    def test_states_are_band_arrays(self):
        thermal = fock.thermal_state(0.2, 12)
        for state, half in ((thermal, 0), (fock.spe_state(3), 0),
                            (fock.project_m(thermal, 0.4, 2), 2)):
            assert state.bands.shape == (2 * half + 1, state.dim, state.dim)
            assert state.bands.dtype == complex

    def test_projection_stored_entries(self):
        dim, m = 34, 4
        projected = fock.project_m(fock.thermal_state(0.5, dim), 1.3, m)
        assert projected.bands.size <= (2 * m + 1) * dim * dim
        assert projected.bands.nbytes == fock.state_nbytes(dim, m)

    def test_dense_entry_between_shells_refused(self):
        dim = 4
        rho = _random_shell_state(dim, seed=1) * (1 - 1e-3)
        # |0, 1><1, 1| joins shell 1 to shell 2
        rho[0 * dim + 1, 1 * dim + 1] = rho[1 * dim + 1, 0 * dim + 1] = 1e-3
        with pytest.raises(ValueError, match="photon-number shells"):
            fock.TwoModeState(dim, rho)

    def test_dense_round_trip(self):
        rho = _random_shell_state(5, seed=3)
        assert np.array_equal(_dense(fock.TwoModeState(5, rho)), rho)


class TestDenseReference:
    """The band engine against the dense Kronecker-product engine it
    replaced, to 1e-13 of the largest entry."""

    @staticmethod
    def _states(dim):
        # the largest mean photon number whose tail the cutoff holds
        q = 0.1 ** (11 / dim)
        yield fock.thermal_state(q / (1 - q), dim)
        yield fock.TwoModeState(dim, _random_shell_state(dim, seed=dim))

    @pytest.mark.parametrize("dim", [2, 5, 9, 12])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_project_m(self, dim, m):
        for state in self._states(dim):
            for delta, scale in ((0.0, 1.0), (0.7, 1.0), (2.9, 1.7), (-1.3, 0.4)):
                try:
                    got = _dense(fock.project_m(state, delta, m, scale))
                except ZeroProjectionError:
                    assert abs(_reference_gm1(_dense(state), dim, m - 1, delta, delta,
                                              scale)) < 1e-300
                    continue
                want = _reference_project(_dense(state), dim, delta, m, scale)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("dim", [2, 5, 9, 12])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_expect_gm1(self, dim, m):
        for state in self._states(dim):
            for d1, d2, scale in ((0.0, 0.0, 1.0), (0.9, 0.0, 1.0), (2.2, -0.4, 1.3)):
                got = fock.expect_gm1(state, m, d1, d2, scale)
                want = _reference_gm1(_dense(state), dim, m, d1, d2, scale)
                assert got == pytest.approx(want.real, rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("m", [1, 3])
    def test_cross_corr(self, m):
        dim = 20
        state = fock.project_m(fock.thermal_state(0.3, dim), 0.6, m)
        rho = _dense(state)
        a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
        eye = np.eye(dim)
        a1, a2 = np.kron(a, eye), np.kron(eye, a)
        n1 = np.trace(a1.conj().T @ a1 @ rho).real
        n2 = np.trace(a2.conj().T @ a2 @ rho).real
        want = np.trace(a1.conj().T @ a2 @ rho) / math.sqrt(n1 * n2)
        assert fock.cross_corr(state) == pytest.approx(want, rel=1e-13)
        assert state.occupation(0) == pytest.approx(n1, rel=1e-13)
        assert state.occupation(1) == pytest.approx(n2, rel=1e-13)


class TestLargeCutoff:
    def test_pin_and_memory(self):
        """Value measured with the sparse engine; the call's traced peak
        stays a small multiple of the projected state's own bytes."""
        dim = fock.suggest_dim(5.0, 4)
        assert dim == 189
        tracemalloc.start()
        try:
            c = fock.cm_coefficient(5.0, 4, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(c) == pytest.approx(0.6666666667248199, rel=1e-14)
        assert peak <= 3 * fock.state_nbytes(dim, 4)


class TestCutoffGuard:
    def test_refuses_cutoff_below_suggestion(self):
        # the projected state's top shell holds only 1.6e-11 here, yet the
        # coefficient would come out 0.7601 instead of 0.75
        with pytest.raises(UnderTruncationError) as err:
            fock.cm_coefficient(0.05, 6, 0.0, dim=8)
        assert err.value.suggested_dim == fock.suggest_dim(0.05, 6)
        assert str(err.value).endswith(f"use dim >= {fock.suggest_dim(0.05, 6)}")
