import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermalbell import analytic
from thermalbell.analytic import (ALL_PAIRS, CROSS_PAIRS, PAIR_DD, PAIR_DP,
                                  PAIR_D1P1, PAIR_D2P2, PAIR_PD, PAIR_PP)
from thermalbell.sources import spe, tls

MODEL = tls(1.0, 1.0)


class TestFirstOrder:
    def test_tls_value(self):
        assert analytic.g1(tls(1.0, 1.0), 0.3) == 2.0

    def test_spe_value(self):
        assert analytic.g1(spe(1.0), -2.0) == 2.0

    def test_setting_independent(self):
        model = tls(0.4, 1.3)
        assert analytic.g1(model, 0.1) == analytic.g1(model, 2.9)

    def test_scales(self):
        assert analytic.g1(tls(0.5, 2.0)) == pytest.approx(2 * 4.0 * 0.5)


class TestSecondOrder:
    def test_spe_constructive(self):
        assert analytic.g2_spe_set(0.7, 0.7, 1.0).values[PAIR_DD] == pytest.approx(4.0)

    def test_spe_destructive(self):
        assert analytic.g2_spe_set(0.0, math.pi, 1.0).values[PAIR_DD] == \
            pytest.approx(0.0, abs=1e-15)

    def test_spe_flat_at_zero_visibility(self):
        assert analytic.g2_spe_set(0.3, 1.9, 0.0).values[PAIR_DD] == pytest.approx(2.0)

    def test_tls_thermal_peak(self):
        assert analytic.g2_tls_set(0.0, 0.0, MODEL).values[PAIR_DD] == pytest.approx(8.0)

    def test_tls_quarter_fringe(self):
        assert analytic.g2_tls_set(math.pi / 2, 0.0, MODEL).values[PAIR_DD] == \
            pytest.approx(6.0)

    def test_tls_bunching_when_normalized(self):
        g2 = analytic.g2_tls_set(0.2, 0.2, MODEL).values[PAIR_DD]
        assert g2 / analytic.g1(MODEL) ** 2 == pytest.approx(2.0)

    @pytest.mark.parametrize("vis", [-0.1, 1.1, 2.0])
    def test_rejects_bad_visibility(self, vis):
        with pytest.raises(ValueError):
            analytic.g2_spe_set(0.0, 0.0, vis)
        with pytest.raises(ValueError):
            analytic.g2_tls_set(0.0, 0.0, MODEL, vis)


class TestVisibilityLaw:
    def test_known_values(self):
        assert analytic.visibility_tls_exact(1) == Fraction(1, 3)
        assert analytic.visibility_tls(5) == pytest.approx(5 / 7)
        assert analytic.visibility_tls(6) == 0.75

    def test_figure_curve_exact(self):
        expected = [Fraction(1, 3), Fraction(1, 2), Fraction(3, 5), Fraction(2, 3),
                    Fraction(5, 7), Fraction(3, 4), Fraction(7, 9), Fraction(4, 5)]
        assert [analytic.visibility_tls_exact(m) for m in range(1, 9)] == expected

    def test_monotone_and_below_one(self):
        values = [analytic.visibility_tls(m) for m in range(1, 60)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(v < 1.0 for v in values)

    def test_rejects_m_below_one(self):
        with pytest.raises(ValueError):
            analytic.visibility_tls(0)

    @given(st.integers(1, 10**18))
    @settings(max_examples=300, deadline=None)
    def test_float_is_the_exact_value_rounded_once(self, m):
        got = analytic.visibility_tls(m)
        assert type(got) is float
        assert got.hex() == float(analytic.visibility_tls_exact(m)).hex()


class TestHigherOrderSet:
    def test_reduces_to_second_order(self):
        cset = analytic.gm1_tls_set(1, 0.0, 0.0, MODEL)
        assert cset.values[PAIR_DD] == pytest.approx(8.0)
        assert cset.amplitude == pytest.approx(6.0)
        assert cset.visibility == pytest.approx(1 / 3)

    def test_matches_g2_tls_at_every_phase(self):
        for d in np.linspace(-2 * math.pi, 2 * math.pi, 37):
            cset = analytic.gm1_tls_set(1, d, 0.4, MODEL)
            want = analytic.g2_tls_set(d, 0.4, MODEL).values[PAIR_DD]
            assert cset.values[PAIR_DD] == pytest.approx(want, rel=1e-12)

    def test_m6_normalized_fringe(self):
        assert analytic.normalized_amplitude(6) == pytest.approx(2880.0)
        assert analytic.gm1_tls_normalized(6, 0.0, 0.0) == pytest.approx(5040.0)
        assert analytic.gm1_tls_normalized(6, math.pi, 0.0) == pytest.approx(720.0)

    def test_pair_structure(self):
        cset = analytic.gm1_tls_set(4, 1.1, -0.2, MODEL)
        assert cset.values[PAIR_DD] == cset.values[PAIR_PP]
        assert cset.values[PAIR_DP] == cset.values[PAIR_PD]

    def test_vis_override(self):
        cset = analytic.gm1_tls_set(6, 0.0, 0.0, MODEL, vis_override=0.5)
        assert cset.visibility == 0.5
        assert cset.values[PAIR_DD] == pytest.approx(cset.amplitude * 1.5)

    def test_large_m_stays_raw(self):
        """Past m = 20 the amplitude keeps its exact integer prefactor,
        rounded once, and its scale."""
        cset = analytic.gm1_tls_set(25, 0.0, 0.0, MODEL)
        assert cset.amplitude == float(math.factorial(27) // 26 * 2**25)
        assert analytic.gm1_tls_set(25, 0.0, 0.0, tls(0.5)).amplitude == \
            cset.amplitude * 0.5**26

    def test_amplitude_scales_with_model(self):
        cset = analytic.gm1_tls_set(2, 0.0, 0.0, tls(0.5, 2.0))
        # (4!/3) * 2^2 * E0^6 * nbar^3 = 8 * 4 * 64 * 0.125
        assert cset.amplitude == pytest.approx(8 * 4 * 64 * 0.125)


class TestClassicalVisibilityBound:
    def test_kind_specific_maxima(self):
        from thermalbell.sources import coherent
        assert analytic.max_g2_visibility(spe()) == 1.0
        assert analytic.max_g2_visibility(coherent()) == 0.5
        assert analytic.max_g2_visibility(tls()) == pytest.approx(1 / 3)

    def test_classical_g2_cannot_reach_bell_thresholds(self):
        """No classical pair reaches either six-term threshold at second order."""
        from thermalbell import bell
        from thermalbell.sources import coherent
        lower = bell.threshold_visibility(bell.BellModel.SIX_TERM_TLS,
                                          bell.Bound.LOWER)
        for model in (tls(), coherent()):
            assert analytic.max_g2_visibility(model) < lower


class TestProbabilities:
    def test_spe_ideal_six(self):
        delta = 0.3
        ps = analytic.probabilities_six(analytic.g2_spe_set(delta, 0.0, 1.0))
        assert ps.joint[PAIR_DD] == pytest.approx((1 + math.cos(delta)) / 4)
        assert ps.joint[PAIR_D1P1] == 0.0
        assert ps.joint[PAIR_D2P2] == 0.0

    def test_six_marginals_exactly_half(self):
        for vis in (0.0, 0.2, 1 / 3, 0.777, 1.0):
            ps = analytic.probabilities_six(analytic.g2_tls_set(0.9, 0.1, MODEL, vis))
            assert ps.marginal_1 == 0.5
            assert ps.marginal_2 == 0.5

    def test_six_sum_to_one(self):
        ps = analytic.probabilities_six(analytic.g2_tls_set(1.2, -0.7, MODEL))
        assert math.fsum(ps.joint.values()) == pytest.approx(1.0, abs=1e-12)

    def test_six_requires_all_pairs(self):
        with pytest.raises(ValueError, match="missing pair"):
            analytic.probabilities_six(analytic.gm1_tls_set(2, 0.0, 0.0, MODEL))

    def test_six_rejects_inconsistent_visibility(self):
        cset = analytic.g2_tls_set(0.4, 0.0, MODEL, vis=0.3)
        cset.visibility = 0.9
        with pytest.raises(ValueError, match="inconsistent"):
            analytic.probabilities_six(cset)

    def test_four_m6_peak(self):
        ps = analytic.probabilities_four(analytic.gm1_tls_set(6, 0.0, 0.0, MODEL))
        assert ps.joint[PAIR_DD] == pytest.approx(0.4375)

    def test_four_flat_at_zero_visibility(self):
        ps = analytic.probabilities_four(
            analytic.gm1_tls_set(3, 1.0, 0.0, MODEL, vis_override=0.0))
        for pair in CROSS_PAIRS:
            assert ps.joint[pair] == pytest.approx(0.25)

    def test_four_sum_to_one(self):
        ps = analytic.probabilities_four(analytic.gm1_tls_set(5, 2.2, 0.3, MODEL))
        assert math.fsum(ps.joint[p] for p in CROSS_PAIRS) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative_values(self):
        cset = analytic.gm1_tls_set(2, 0.0, 0.0, MODEL)
        cset.values[PAIR_DP] = -1e-9
        with pytest.raises(ValueError, match="negative"):
            analytic.probabilities_four(cset)


# a dyadic grid keeps phase sums exact in binary floating point, so the
# common-offset invariance can be asserted bitwise
_DYADIC = st.integers(-64, 64).map(lambda k: k / 16.0)


class TestProperties:
    @given(vis=st.floats(0.0, 1.0), delta=st.floats(-10.0, 10.0))
    @settings(max_examples=300)
    def test_probability_sets_well_formed(self, vis, delta):
        for ps, pairs in (
            (analytic.probabilities_six(analytic.g2_tls_set(delta, 0.0, MODEL, vis)),
             ALL_PAIRS),
            (analytic.probabilities_four(
                analytic.gm1_tls_set(2, delta, 0.0, MODEL, vis_override=vis)),
             CROSS_PAIRS),
        ):
            values = [ps.joint[p] for p in pairs]
            assert all(v >= 0 for v in values)
            assert math.fsum(values) == pytest.approx(1.0, abs=1e-12)
            assert ps.marginal_1 == 0.5
            assert ps.marginal_2 == 0.5

    @given(m=st.integers(1, 114), u=st.floats(-0.99, 0.99), v=st.floats(-0.99, 0.99))
    @settings(max_examples=300)
    def test_amplitude_is_midline_times_g1_power(self, m, u, v):
        """At every order and scale the scale guard admits, the raw amplitude
        is the normalized midline times g1^(m+1): one rule at every m."""
        from thermalbell import cli
        # E0^(2(m+1)) and nbar^(m+1) each take up to just under half the guard's range
        limit = 1022 - (m + 1) * math.log2(4 * (m + 1))
        model = tls(2.0 ** (v * limit / (2 * (m + 1))), 2.0 ** (u * limit / (4 * (m + 1))))
        cli._check_scale(model, [m])
        amplitude = analytic.gm1_tls_set(m, 0.3, 0.0, model).amplitude
        assert amplitude == pytest.approx(
            analytic.normalized_amplitude(m) * analytic.g1(model) ** (m + 1), rel=1e-12)

    @given(d1=_DYADIC, d2=_DYADIC, shift=_DYADIC, m=st.integers(1, 8))
    @settings(max_examples=200)
    def test_phase_shift_invariance_exact(self, d1, d2, shift, m):
        base = analytic.gm1_tls_set(m, d1, d2, MODEL)
        shifted = analytic.gm1_tls_set(m, d1 + shift, d2 + shift, MODEL)
        assert base.values == shifted.values

    @given(d1=st.floats(-7.0, 7.0), d2=st.floats(-7.0, 7.0),
           vis=st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_swap_symmetry_exact(self, d1, d2, vis):
        cset = analytic.g2_spe_set(d1, d2, vis)
        assert cset.values[PAIR_DP] == cset.values[PAIR_PD]
        assert cset.values[PAIR_DD] == cset.values[PAIR_PP]
