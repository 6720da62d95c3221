import math

import numpy as np
import pytest
from scipy import sparse

from thermalbell import analytic, fock, permanents
from thermalbell.errors import UnderTruncationError, ZeroProjectionError
from thermalbell.sources import tls


def _vacuum(dim: int) -> fock.TwoModeState:
    rho = np.zeros((dim * dim, dim * dim), dtype=complex)
    rho[0, 0] = 1.0
    return fock.TwoModeState(dim, rho)


class TestThermalState:
    def test_mean_photon_number(self):
        state = fock.thermal_state(0.2, 15)
        assert state.occupation(0) == pytest.approx(0.2, abs=1e-9)
        assert state.occupation(1) == pytest.approx(0.2, abs=1e-9)

    def test_near_vacuum_limit(self):
        state = fock.thermal_state(1e-12, 4)
        assert state.matrix[0, 0].real == pytest.approx(1.0, abs=1e-11)

    def test_mode_exchange_symmetry(self):
        state = fock.thermal_state(0.3, 20)
        rho = state.matrix.toarray().reshape(20, 20, 20, 20)
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


class TestSpeState:
    def test_total_photon_number(self):
        state = fock.spe_state(3)
        assert state.occupation(0) + state.occupation(1) == pytest.approx(2.0)

    def test_purity(self):
        rho = fock.spe_state(4).matrix.toarray()
        assert np.trace(rho @ rho).real == pytest.approx(1.0)

    def test_reproduces_spe_interference(self):
        state = fock.spe_state(3)
        for d in np.linspace(-math.pi, math.pi, 11):
            got = fock.expect_gm1(state, 1, d, 0.0)
            assert got == pytest.approx(analytic.g2_spe(d, 0.0, 1.0), abs=1e-10)


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
        rho_in = state.matrix.toarray()
        rotated_in = fock.TwoModeState(dim, (u[:, None] * rho_in) * np.conj(u)[None, :])
        rotated_out = fock.project_m(rotated_in, 0.7, 2)
        expected = (u[:, None] * projected.matrix.toarray()) * np.conj(u)[None, :]
        assert np.allclose(rotated_out.matrix.toarray(), expected, atol=1e-12)

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
            want = analytic.g2_tls(d, 0.0, 1 / 3, model)
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


class TestSparseStates:
    def test_states_are_sparse(self):
        thermal = fock.thermal_state(0.2, 12)
        for state in (thermal, fock.spe_state(3), fock.project_m(thermal, 0.4, 2)):
            assert sparse.issparse(state.matrix) and state.matrix.format == "csr"

    def test_projection_stays_within_photon_number_shells(self):
        dim = 34
        projected = fock.project_m(fock.thermal_state(0.5, dim), 1.3, 4)
        # pairs (n1, n2) with n1 + n2 = N and both below dim
        shells = [min(n, 2 * (dim - 1) - n) + 1 for n in range(2 * dim - 1)]
        assert projected.matrix.nnz <= sum(size * size for size in shells)


class TestCutoffGuard:
    def test_refuses_cutoff_below_suggestion(self):
        # the projected state's top shell holds only 1.6e-11 here, yet the
        # coefficient would come out 0.7601 instead of 0.75
        with pytest.raises(UnderTruncationError) as err:
            fock.cm_coefficient(0.05, 6, 0.0, dim=8)
        assert err.value.suggested_dim == fock.suggest_dim(0.05, 6)
        assert str(err.value).endswith(f"use dim >= {fock.suggest_dim(0.05, 6)}")
