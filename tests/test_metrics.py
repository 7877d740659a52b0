"""Tests for duality metrics: visibility, predictability, duality sums,
pattern divergence, and fringe carrier phase."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whichway.analytic import (
    PEAK_SINGLE_SLIT,
    GridSpec,
    IntensityPattern,
    ModelKind,
    default_grid,
    fringe_factor,
    sample_pattern,
)
from whichway.geometry import SlitGeometry, fringe_period
from whichway.metrics import (
    DISTINGUISHABILITY,
    DUALITY_TOLERANCE,
    PREDICTABILITY,
    ResolutionError,
    duality_report,
    fringe_carrier_phase,
    pattern_divergence,
    predictability,
    visibility_fringe_local,
    visibility_global,
)

# Module-level geometries: hypothesis @given cannot take function-scoped
# fixtures.
REF_GEOM = SlitGeometry(0.63e-6, 2e-6, 12e-6, 0.1)
# Slit narrow enough that the envelope is flat across several fringes, so
# fringe contrast is set by the slit amplitudes alone.
FLAT_GEOM = SlitGeometry(0.63e-6, 0.06e-6, 12e-6, 0.1)
T_REF = fringe_period(REF_GEOM)
FRINGE_GRID = GridSpec(FLAT_GEOM.slit_a_center_m - 3.0 * T_REF,
                       FLAT_GEOM.slit_a_center_m + 3.0 * T_REF, 4001)


def flat_pattern(alpha, beta):
    return sample_pattern(ModelKind.GENERAL_TWO_SLIT, FLAT_GEOM,
                          grid=FRINGE_GRID, alpha=alpha, beta=beta)


class TestVisibilityGlobal:
    def test_full_contrast(self):
        x = np.linspace(0.0, 1.0, 9)
        values = np.where(np.arange(9) % 2 == 0, 1.0, 0.0)
        p = IntensityPattern(x, values, PEAK_SINGLE_SLIT)
        assert visibility_global(p) == 1.0

    def test_constant_pattern(self):
        x = np.linspace(0.0, 1.0, 9)
        p = IntensityPattern(x, np.ones(9), PEAK_SINGLE_SLIT)
        assert visibility_global(p) == 0.0

    def test_zero_pattern_rejected(self):
        x = np.linspace(0.0, 1.0, 9)
        p = IntensityPattern(x, np.zeros(9), PEAK_SINGLE_SLIT)
        with pytest.raises(ValueError):
            visibility_global(p)

    def test_standard_two_slit_near_unity(self):
        p = sample_pattern(ModelKind.STANDARD_TWO_SLIT, REF_GEOM)
        assert visibility_global(p) > 0.999

    def test_flat_envelope_amplitude_ratio(self):
        # With a flat envelope, global and fringe contrast coincide at
        # 2 a b / (a^2 + b^2): 0.8 for a = 2, b = 1.
        p = flat_pattern(2.0, 1.0)
        assert visibility_global(p) == pytest.approx(0.8, rel=1e-3)


class TestVisibilityFringeLocal:
    def test_balanced_fringes_unity(self, ref_geom):
        p = sample_pattern(ModelKind.EMPTY_WAVE_A, ref_geom)
        v = visibility_fringe_local(p, ref_geom)
        assert 1.0 - 1e-6 <= v <= 1.0

    def test_pure_fringe_unity(self, ref_geom):
        p = sample_pattern(ModelKind.PURE_FRINGE, ref_geom)
        assert visibility_fringe_local(p, ref_geom) == pytest.approx(1.0, abs=1e-9)

    def test_fringe_free_envelope_small(self, ref_geom):
        # Bare envelope has no interior minimum near its peak; residual
        # contrast across a quarter period is far below any real fringe.
        p = sample_pattern(ModelKind.STANDARD_FOCUSED_A, ref_geom)
        v = visibility_fringe_local(p, ref_geom)
        assert 0.0 < v <= 0.01

    def test_coarse_grid_rejected(self, ref_geom):
        grid = default_grid(ModelKind.STANDARD_TWO_SLIT, ref_geom, points=51)
        p = sample_pattern(ModelKind.STANDARD_TWO_SLIT, ref_geom, grid=grid)
        with pytest.raises(ResolutionError):
            visibility_fringe_local(p, ref_geom)

    def test_resolution_error_is_value_error(self):
        assert issubclass(ResolutionError, ValueError)

    @pytest.mark.parametrize("alpha,beta,expected", [
        (1.0, 1.0, 1.0),
        (2.0, 1.0, 0.8),
        (1.0, 3.0, 0.6),
    ])
    def test_amplitude_ratio_landmarks(self, alpha, beta, expected):
        p = flat_pattern(alpha, beta)
        v = visibility_fringe_local(p, FLAT_GEOM)
        assert v == pytest.approx(expected, abs=1e-4)

    @settings(max_examples=30, deadline=None)
    @given(alpha=st.floats(min_value=0.1, max_value=1.0),
           beta=st.floats(min_value=0.1, max_value=1.0))
    def test_amplitude_ratio_formula(self, alpha, beta):
        p = flat_pattern(alpha, beta)
        v = visibility_fringe_local(p, FLAT_GEOM)
        expected = 2.0 * alpha * beta / (alpha * alpha + beta * beta)
        assert v == pytest.approx(expected, abs=1e-4)


class TestPredictability:
    @pytest.mark.parametrize("pa,pb,expected", [
        (1.0, 0.0, 1.0),
        (0.0, 1.0, 1.0),
        (0.5, 0.5, 0.0),
        (0.9, 0.1, 0.8),
    ])
    def test_landmarks(self, pa, pb, expected):
        assert predictability(pa, pb) == pytest.approx(expected, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            predictability(0.6, 0.6)
        with pytest.raises(ValueError):
            predictability(0.3, 0.4)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            predictability(-0.1, 1.1)

    @given(p=st.floats(min_value=0.0, max_value=1.0))
    def test_symmetric_in_arguments(self, p):
        assert predictability(p, 1.0 - p) == predictability(1.0 - p, p)
        assert predictability(p, 1.0 - p) == pytest.approx(
            abs(2.0 * p - 1.0), abs=1e-12)


class TestDualityReport:
    def test_saturated_cases(self):
        for w, v in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8)):
            report = duality_report(PREDICTABILITY, w, v)
            assert report.duality_sum == pytest.approx(1.0, abs=1e-15)
            assert report.inequality_satisfied

    def test_violating_case(self):
        report = duality_report(PREDICTABILITY, 1.0, 1.0)
        assert report.duality_sum == 2.0
        assert not report.inequality_satisfied

    def test_distinguishability_kind(self):
        report = duality_report(DISTINGUISHABILITY, 1.0, 0.0)
        assert report.which_way_kind == DISTINGUISHABILITY

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            duality_report("certainty", 0.5, 0.5)

    @pytest.mark.parametrize("w,v", [(-0.1, 0.5), (1.1, 0.5),
                                     (0.5, -0.1), (0.5, 1.1)])
    def test_rejects_out_of_range(self, w, v):
        with pytest.raises(ValueError):
            duality_report(PREDICTABILITY, w, v)

    def test_meta_is_copied(self):
        meta = {"note": "original"}
        report = duality_report(PREDICTABILITY, 0.5, 0.5, meta=meta)
        meta["note"] = "mutated"
        assert report.meta == {"note": "original"}
        assert duality_report(PREDICTABILITY, 0.5, 0.5).meta == {}

    @given(w=st.floats(min_value=0.0, max_value=1.0),
           v=st.floats(min_value=0.0, max_value=1.0))
    def test_sum_is_exact(self, w, v):
        report = duality_report(PREDICTABILITY, w, v)
        total = w * w + v * v
        assert report.duality_sum == total
        assert report.inequality_satisfied == (total <= 1.0 + DUALITY_TOLERANCE)


class TestPatternDivergence:
    def test_self_divergence_is_zero(self, ref_geom):
        p = sample_pattern(ModelKind.EMPTY_WAVE_A, ref_geom)
        d = pattern_divergence(p, p)
        assert d.l2_relative == 0.0
        assert d.sup_relative == 0.0
        assert d.visibility_gap == 0.0

    def test_fringed_vs_fringe_free_gap(self, ref_geom):
        grid = default_grid(ModelKind.EMPTY_WAVE_A, ref_geom)
        fringed = sample_pattern(ModelKind.EMPTY_WAVE_A, ref_geom, grid=grid)
        smooth = sample_pattern(ModelKind.STANDARD_FOCUSED_A, ref_geom,
                                grid=grid)
        d = pattern_divergence(fringed, smooth)
        assert d.visibility_gap == pytest.approx(1.0, abs=0.01)
        assert d.sup_relative > 0.3

    def test_sum_reduces_to_standard_near_center(self, ref_geom):
        # On the central lobe the slit-resolved sum and the standard pattern
        # agree once both are expressed in single-slit peak units.
        lobe = ref_geom.wavelength_m * ref_geom.screen_distance_m \
            / ref_geom.slit_width_m
        grid = GridSpec(-lobe, lobe, 4001)
        summed = sample_pattern(ModelKind.EMPTY_WAVE_SUM, ref_geom, grid=grid)
        standard = sample_pattern(ModelKind.STANDARD_TWO_SLIT, ref_geom,
                                  grid=grid)
        d = pattern_divergence(summed, standard)
        assert d.sup_relative < 1e-5
        assert d.visibility_gap < 1e-6

    def test_rejects_mismatched_grids(self, ref_geom):
        a = sample_pattern(ModelKind.STANDARD_TWO_SLIT, ref_geom)
        b = sample_pattern(ModelKind.STANDARD_TWO_SLIT, ref_geom,
                           grid=default_grid(ModelKind.STANDARD_TWO_SLIT,
                                             ref_geom, points=2001))
        with pytest.raises(ValueError):
            pattern_divergence(a, b)

    def test_rejects_missing_geometry(self, ref_geom):
        a = sample_pattern(ModelKind.STANDARD_TWO_SLIT, ref_geom)
        bare = IntensityPattern(a.x_m, a.intensity, a.normalization)
        with pytest.raises(ValueError):
            pattern_divergence(a, bare)

    def test_rejects_different_geometries(self, ref_geom, hene_geom):
        grid = default_grid(ModelKind.STANDARD_TWO_SLIT, ref_geom)
        a = sample_pattern(ModelKind.STANDARD_TWO_SLIT, ref_geom, grid=grid)
        b = sample_pattern(ModelKind.STANDARD_TWO_SLIT, hene_geom, grid=grid)
        with pytest.raises(ValueError):
            pattern_divergence(a, b)

    def test_rejects_zero_patterns(self, ref_geom):
        x = np.linspace(-1e-3, 1e-3, 101)
        zero = IntensityPattern(x, np.zeros(101), PEAK_SINGLE_SLIT,
                                meta={"geometry": ref_geom})
        with pytest.raises(ValueError):
            pattern_divergence(zero, zero)


class TestFringeCarrierPhase:
    def test_unshifted_fringe_zero_phase(self, ref_geom):
        period = fringe_period(ref_geom)
        x = np.linspace(-4.0 * period, 4.0 * period, 4001)
        psi = fringe_carrier_phase(x, fringe_factor(ref_geom, x), ref_geom)
        assert psi == pytest.approx(0.0, abs=1e-12)

    def test_quarter_period_shift(self, ref_geom):
        period = fringe_period(ref_geom)
        x = np.linspace(-4.0 * period, 4.0 * period, 4001)
        values = fringe_factor(ref_geom, x - period / 4.0)
        psi = fringe_carrier_phase(x, values, ref_geom)
        assert psi == pytest.approx(math.pi / 2.0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(shift=st.floats(min_value=-0.4, max_value=0.4))
    def test_recovers_fractional_shift(self, shift):
        period = fringe_period(REF_GEOM)
        x = np.linspace(-4.0 * period, 4.0 * period, 4001)
        values = fringe_factor(REF_GEOM, x - shift * period)
        psi = fringe_carrier_phase(x, values, REF_GEOM)
        assert psi == pytest.approx(2.0 * math.pi * shift, abs=1e-9)

    def test_rejects_short_window(self, ref_geom):
        period = fringe_period(ref_geom)
        x = np.linspace(0.0, 0.9 * period, 101)
        with pytest.raises(ValueError):
            fringe_carrier_phase(x, fringe_factor(ref_geom, x), ref_geom)

    def test_rejects_bad_shapes(self, ref_geom):
        period = fringe_period(ref_geom)
        x = np.linspace(0.0, 8.0 * period, 4001)
        with pytest.raises(ValueError):
            fringe_carrier_phase(x, np.ones(4000), ref_geom)
        with pytest.raises(ValueError):
            fringe_carrier_phase(x[:7], np.ones(7), ref_geom)

    def test_rejects_missing_carrier(self, ref_geom):
        period = fringe_period(ref_geom)
        x = np.linspace(0.0, 8.0 * period, 4001)
        with pytest.raises(ValueError):
            fringe_carrier_phase(x, np.zeros(4001), ref_geom)
