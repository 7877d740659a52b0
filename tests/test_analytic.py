import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from whichway import (PEAK_SINGLE_SLIT, UNIT_INTEGRAL, GridSpec,
                      IntensityPattern, ModelKind, SlitGeometry, default_grid,
                      empty_wave_a, empty_wave_b, empty_wave_sum,
                      fringe_factor, fringe_period,
                      general_two_slit_intensity, pure_fringe, sample_pattern,
                      single_slit_intensity, standard_focused_a,
                      standard_two_slit)

finite_x = st.floats(min_value=-0.05, max_value=0.05, allow_nan=False)

REF_GEOM = SlitGeometry(0.63e-6, 2e-6, 12e-6, 0.1)


class TestSingleSlit:
    def test_peak_at_center(self, ref_geom):
        c = ref_geom.slit_a_center_m
        assert single_slit_intensity(ref_geom, c, center_m=c) == 1.0

    def test_zero_at_first_null(self, ref_geom):
        lo = ref_geom.slit_a_center_m - ref_geom.wavelength_m \
            * ref_geom.screen_distance_m / ref_geom.slit_width_m
        assert single_slit_intensity(ref_geom, lo,
                                     ref_geom.slit_a_center_m) < 1e-25

    def test_floor_value(self, ref_geom):
        # value of the A-centered envelope at the opposite-side null x1,
        # against the small-argument estimate (s d / 2 lambda D)^2
        lam_d = ref_geom.wavelength_m * ref_geom.screen_distance_m
        x1 = -lam_d / ref_geom.slit_width_m
        value = single_slit_intensity(ref_geom, x1, ref_geom.slit_a_center_m)
        estimate = (ref_geom.slit_width_m * ref_geom.slit_separation_m
                    / (2 * lam_d)) ** 2
        assert value == pytest.approx(estimate, rel=0.02)
        assert value == pytest.approx(3.6295000157693926e-8, rel=1e-9)

    def test_sinc_continuity_at_cutoff(self, ref_geom):
        # the series/direct switchover at |u| = 1e-4 must be seamless
        lam_d = ref_geom.wavelength_m * ref_geom.screen_distance_m
        u_to_x = lam_d / (math.pi * ref_geom.slit_width_m)
        below = single_slit_intensity(ref_geom, 0.99999e-4 * u_to_x, 0.0)
        above = single_slit_intensity(ref_geom, 1.00001e-4 * u_to_x, 0.0)
        assert below == pytest.approx(above, rel=1e-10)

    @given(finite_x)
    def test_nonnegative_and_finite(self, x):
        geom = SlitGeometry(0.63e-6, 2e-6, 12e-6, 0.1)
        value = single_slit_intensity(geom, x, 0.0)
        assert np.isfinite(value)
        assert 0.0 <= value <= 1.0


class TestFringeFactor:
    def test_landmarks(self, ref_geom):
        period = fringe_period(ref_geom)
        assert fringe_factor(ref_geom, 0.0) == 1.0
        assert fringe_factor(ref_geom, period / 2) < 1e-30
        assert fringe_factor(ref_geom, period) == pytest.approx(1.0,
                                                                abs=1e-12)

    @given(st.integers(min_value=-6, max_value=6))
    def test_periodicity(self, m):
        period = fringe_period(REF_GEOM)
        x = 0.3 * period
        assert fringe_factor(REF_GEOM, x + m * period) == pytest.approx(
            fringe_factor(REF_GEOM, x), abs=1e-9)

    @given(finite_x)
    def test_range(self, x):
        value = fringe_factor(REF_GEOM, x)
        assert 0.0 <= value <= 1.0


class TestGeneralTwoSlit:
    def test_equal_amplitudes_reduce_to_model_a(self, ref_geom):
        x = np.linspace(-0.0378, 0.0378, 4001)
        general = general_two_slit_intensity(ref_geom, x, 1.0, 1.0)
        assert np.max(np.abs(general - empty_wave_a(ref_geom, x))) < 1e-10

    def test_single_path_limit(self, ref_geom):
        # beta = 0: shape proportional to the bare envelope
        x = np.linspace(-0.02, 0.01, 1001)
        general = general_two_slit_intensity(ref_geom, x, 1.0, 0.0)
        envelope = single_slit_intensity(ref_geom, x,
                                         ref_geom.slit_a_center_m)
        keep = envelope > 1e-6
        ratio = general[keep] / envelope[keep]
        assert np.max(np.abs(ratio - ratio[0])) < 1e-12

    def test_unbalanced_fringe_minimum(self, ref_geom):
        # at a fringe minimum the pattern drops to envelope * (a-b)^2/(a+b)^2
        x_min = ref_geom.slit_a_center_m + fringe_period(ref_geom) / 2
        x_min = round(x_min / (fringe_period(ref_geom) / 2)) \
            * fringe_period(ref_geom) / 2
        value = general_two_slit_intensity(ref_geom, x_min, 1.0, 0.5)
        envelope = single_slit_intensity(ref_geom, x_min,
                                         ref_geom.slit_a_center_m)
        assert value == pytest.approx(envelope / 9.0, rel=1e-9)

    def test_rejects_bad_amplitudes(self, ref_geom):
        with pytest.raises(ValueError):
            general_two_slit_intensity(ref_geom, 0.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            general_two_slit_intensity(ref_geom, 0.0, 0.0, 0.0)

    def test_point_source_limit_is_pure_fringe(self):
        # s -> 0 makes the envelope flat; equal amplitudes leave only the
        # cos^2 fringe term
        geom = SlitGeometry(0.63e-6, 1e-12, 12e-6, 0.1)
        x = np.linspace(-0.03, 0.03, 2001)
        general = general_two_slit_intensity(geom, x, 1.0, 1.0)
        assert np.max(np.abs(general - fringe_factor(geom, x))) < 1e-10


class TestModelFamily:
    def test_fringe_zero(self, ref_geom):
        x = fringe_period(ref_geom) / 2
        assert empty_wave_a(ref_geom, x) < 1e-30
        assert empty_wave_b(ref_geom, x) < 1e-30

    def test_peak_value_near_slit_center(self):
        geom = SlitGeometry(0.633e-6, 2e-6, 12.6e-6, 0.1)
        value = empty_wave_a(geom, -geom.slit_separation_m / 2)
        lam_d = geom.wavelength_m * geom.screen_distance_m
        expected = math.cos(math.pi * geom.slit_separation_m ** 2
                            / (2 * lam_d)) ** 2
        assert value == pytest.approx(expected, rel=1e-12)
        assert 0.99998 < value < 1.0

    def test_mirror_peak(self, ref_geom):
        d_half = ref_geom.slit_separation_m / 2
        assert empty_wave_b(ref_geom, +d_half) == pytest.approx(
            empty_wave_a(ref_geom, -d_half), rel=1e-12)
        assert empty_wave_b(ref_geom, +d_half) > 0.9999

    @settings(max_examples=60)
    @given(finite_x)
    def test_mirror_identity(self, x):
        assert empty_wave_b(REF_GEOM, x) == pytest.approx(
            empty_wave_a(REF_GEOM, -x), rel=1e-15, abs=1e-300)

    def test_sum_identity(self, ref_geom):
        x = np.linspace(-0.0378, 0.0378, 4001)
        total = empty_wave_sum(ref_geom, x)
        assert np.array_equal(total, empty_wave_a(ref_geom, x)
                              + empty_wave_b(ref_geom, x))

    def test_center_value_doubles(self, ref_geom):
        # both envelopes near 1 and the fringe factor exactly 1 at x = 0
        total = empty_wave_sum(ref_geom, 0.0)
        assert 1.999 < total <= 2.0

    def test_envelope_floor_total(self, ref_geom):
        lam_d = ref_geom.wavelength_m * ref_geom.screen_distance_m
        x1 = -lam_d / ref_geom.slit_width_m
        floor = empty_wave_sum(ref_geom, x1)
        assert 5e-8 <= floor <= 2e-7

    def test_standard_two_slit_landmarks(self, ref_geom):
        assert standard_two_slit(ref_geom, 0.0) == 1.0
        assert standard_two_slit(ref_geom,
                                 fringe_period(ref_geom) / 2) < 1e-30

    def test_reduction_on_central_lobe(self, ref_geom):
        # the summed model, rescaled to its own peak units, collapses onto
        # the textbook product form over the central envelope lobe
        lam_d = ref_geom.wavelength_m * ref_geom.screen_distance_m
        lobe = lam_d / ref_geom.slit_width_m
        x = np.linspace(-lobe, lobe, 4001)
        gap = np.abs(empty_wave_sum(ref_geom, x) / 2
                     - standard_two_slit(ref_geom, x))
        assert np.max(gap) <= 5e-6

    def test_focused_single_path_matches_envelope(self, ref_geom):
        x = np.linspace(-0.035, 0.02, 3001)
        assert np.array_equal(
            standard_focused_a(ref_geom, x),
            single_slit_intensity(ref_geom, x, ref_geom.slit_a_center_m))

    def test_pure_fringe_matches_fringe_factor(self, ref_geom):
        x = np.linspace(-0.01, 0.01, 101)
        assert np.array_equal(pure_fringe(ref_geom, x),
                              fringe_factor(ref_geom, x))

    @pytest.mark.parametrize("model", [empty_wave_a, empty_wave_b,
                                       empty_wave_sum, standard_two_slit])
    def test_fringe_zero_locations(self, model, ref_geom):
        # zeros sit at odd multiples of half a period; neighbors stay above
        # the envelope floor
        period = fringe_period(ref_geom)
        for m in range(-5, 6):
            x_zero = (2 * m + 1) * period / 2
            assert model(ref_geom, x_zero) < 1e-25
            assert model(ref_geom, x_zero - period / 4) > 1e-9
            assert model(ref_geom, x_zero + period / 4) > 1e-9


class TestGridSpec:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            GridSpec(0.1, 0.1, 100)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            GridSpec(2.0, 1.0, 100)

    def test_x_endpoints(self):
        grid = GridSpec(-1.0, 1.0, 5)
        assert np.array_equal(grid.x(), np.linspace(-1.0, 1.0, 5))


class TestIntensityPattern:
    def test_rejects_negative_intensity(self):
        x = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            IntensityPattern(x, np.array([0.0, 1.0, -0.1, 1.0, 0.0]),
                             PEAK_SINGLE_SLIT, {})

    def test_rejects_non_uniform_grid(self):
        x = np.array([0.0, 0.1, 0.3, 0.6, 1.0])
        with pytest.raises(ValueError):
            IntensityPattern(x, np.ones(5), PEAK_SINGLE_SLIT, {})

    def test_rejects_decreasing_grid(self):
        x = np.linspace(1.0, 0.0, 5)
        with pytest.raises(ValueError):
            IntensityPattern(x, np.ones(5), PEAK_SINGLE_SLIT, {})

    def test_unit_integral_enforced(self):
        x = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            IntensityPattern(x, 2.0 * np.ones(5), UNIT_INTEGRAL, {})
        IntensityPattern(x, np.ones(5), UNIT_INTEGRAL, {})
        IntensityPattern(x, 2.0 * np.ones(5), PEAK_SINGLE_SLIT, {})

    def test_spacing(self):
        x = np.linspace(0.0, 1.0, 5)
        pattern = IntensityPattern(x, np.ones(5), PEAK_SINGLE_SLIT, {})
        assert pattern.spacing_m == pytest.approx(0.25, rel=1e-15)


class TestSamplePattern:
    def test_symmetric_model_is_even(self, ref_geom):
        grid = GridSpec(-0.03, 0.03, 1001)
        pattern = sample_pattern(ModelKind.STANDARD_TWO_SLIT, ref_geom, grid)
        flipped = pattern.intensity[::-1]
        assert np.allclose(pattern.intensity, flipped, rtol=1e-9, atol=1e-12)

    def test_unit_integral_normalization(self, ref_geom):
        pattern = sample_pattern(ModelKind.STANDARD_TWO_SLIT, ref_geom,
                                 normalization=UNIT_INTEGRAL)
        total = np.trapezoid(pattern.intensity, pattern.x_m)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_default_grid_peak_location(self, ref_geom):
        pattern = sample_pattern(ModelKind.EMPTY_WAVE_A, ref_geom)
        peak_x = pattern.x_m[int(np.argmax(pattern.intensity))]
        target = ref_geom.slit_a_center_m
        nearest = pattern.x_m[int(np.argmin(np.abs(pattern.x_m - target)))]
        assert peak_x == nearest

    @pytest.mark.parametrize("kind,scale", [
        (ModelKind.SINGLE_SLIT_A, 1.0),
        (ModelKind.STANDARD_FOCUSED_A, 1.0),
        (ModelKind.PURE_FRINGE, 1.0),
        (ModelKind.EMPTY_WAVE_A, 2.0),
        (ModelKind.EMPTY_WAVE_B, 2.0),
        (ModelKind.EMPTY_WAVE_SUM, 2.0),
        (ModelKind.GENERAL_TWO_SLIT, 2.0),
        (ModelKind.STANDARD_TWO_SLIT, 4.0),
    ])
    def test_unit_scale_meta(self, kind, scale, ref_geom):
        pattern = sample_pattern(kind, ref_geom)
        assert pattern.meta["unit_scale"] == scale
        assert pattern.meta["model"] == kind.value
        assert pattern.meta["geometry"] == ref_geom

    def test_default_grid_centers(self, ref_geom):
        grid_a = default_grid(ModelKind.EMPTY_WAVE_A, ref_geom)
        grid_b = default_grid(ModelKind.EMPTY_WAVE_B, ref_geom)
        grid_sym = default_grid(ModelKind.STANDARD_TWO_SLIT, ref_geom)
        mid = lambda g: 0.5 * (g.x_min_m + g.x_max_m)
        assert mid(grid_a) == pytest.approx(ref_geom.slit_a_center_m)
        assert mid(grid_b) == pytest.approx(ref_geom.slit_b_center_m)
        assert mid(grid_sym) == pytest.approx(0.0)
        assert grid_a.points == 4001

    def test_alpha_beta_meta(self, ref_geom):
        pattern = sample_pattern(ModelKind.GENERAL_TWO_SLIT, ref_geom,
                                 alpha=1.0, beta=0.5)
        assert pattern.meta["alpha"] == 1.0
        assert pattern.meta["beta"] == 0.5

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(list(ModelKind)))
    def test_no_nan_anywhere(self, kind):
        pattern = sample_pattern(kind, REF_GEOM)
        assert np.all(np.isfinite(pattern.intensity))
        assert np.all(pattern.intensity >= 0.0)
