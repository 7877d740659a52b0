import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from whichway import (PEAK_SINGLE_SLIT, UNIT_INTEGRAL, GridSpec,
                      IntensityPattern, ModelKind, PlateTerms, SlitGeometry,
                      default_grid,
                      empty_wave_a, empty_wave_b, empty_wave_sum,
                      fringe_factor, fringe_period,
                      general_two_slit_intensity, pure_fringe, sample_pattern,
                      single_slit_intensity, standard_focused_a,
                      standard_two_slit)
from whichway.analytic import _sinc

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

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=8)
           | st.lists(st.floats(-2e-4, 2e-4), min_size=1, max_size=8))
    def test_sinc_has_the_bits_of_both_branches_everywhere(self, values):
        u = np.array(values)
        small = np.abs(u) < 1e-4
        safe = np.where(small, 1.0, u)
        with np.errstate(over="ignore", invalid="ignore"):
            u2 = u * u
            both = np.where(small, 1.0 - u2 / 6.0 + u2 * u2 / 120.0,
                            np.sin(safe) / safe)
        # Underflow is numpy's default "ignore", and right.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            assert np.array_equal(_sinc(u).view(np.uint64),
                                  both.view(np.uint64))
            assert _sinc(u[0]).shape == ()

    def test_far_window_warns_of_nothing(self, ref_geom):
        # |u| is near 1e200 here, where the short series would overflow.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pattern = sample_pattern(ModelKind.SINGLE_SLIT_A, ref_geom,
                                     GridSpec(1e198, 2e198, 3))
        assert np.array_equal(pattern.intensity, np.zeros(3))

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
        with pytest.raises(ValueError, match="cannot both be zero"):
            general_two_slit_intensity(ref_geom, 0.0, 0.0, 0.0)
        # (alpha + beta)^2 underflows to 0 or overflows, as the config rule
        # has it, instead of a 0/0 or an OverflowError.
        for alpha, beta in ((1e-170, 1e-170), (5e-324, 0.0), (1e155, 1e155)):
            with pytest.raises(ValueError, match="overflows or is 0"):
                general_two_slit_intensity(ref_geom, 0.0, alpha, beta)

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

    @pytest.mark.parametrize("formula", [
        single_slit_intensity, fringe_factor, empty_wave_a, empty_wave_b,
        empty_wave_sum, standard_two_slit, standard_focused_a, pure_fringe,
        lambda geom, x: general_two_slit_intensity(geom, x, 1.0, 0.5),
    ])
    def test_scalar_in_float_out_and_finite_x_only(self, formula, ref_geom):
        assert type(formula(ref_geom, 1e-3)) is float
        assert formula(ref_geom, np.array([0.0, 1e-3])).shape == (2,)
        for x in (math.nan, [0.0, math.inf]):
            with pytest.raises(ValueError, match="x_m must be finite"):
                formula(ref_geom, x)

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

    @pytest.mark.parametrize("x_max,points,message", [
        (1.0000000000000004, 5, "strictly increasing"),
        (1.0000001, 11, "uniformly spaced"),
    ])
    def test_check_points_rejects_a_window_too_narrow(self, x_max, points,
                                                      message):
        # A valid GridSpec whose floats collapse or step unevenly: the
        # pattern built on it would fail the same way.
        grid = GridSpec(1.0, x_max, points)
        with pytest.raises(ValueError, match=message):
            grid.check_points()
        with pytest.raises(ValueError, match=message):
            IntensityPattern(grid.x(), np.ones(points), PEAK_SINGLE_SLIT, {})


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

    @pytest.mark.parametrize("x,intensity,normalization,message", [
        (np.linspace(0.0, 1.0, 5), np.ones(4), PEAK_SINGLE_SLIT,
         "matching 1-d arrays"),
        (np.zeros((2, 2)), np.ones((2, 2)), PEAK_SINGLE_SLIT,
         "matching 1-d arrays"),
        (np.linspace(0.0, 1.0, 5), np.ones(5), "max",
         "unknown normalization"),
    ])
    def test_rejects_malformed(self, x, intensity, normalization, message):
        with pytest.raises(ValueError, match=message):
            IntensityPattern(x, intensity, normalization, {})

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

    @pytest.mark.parametrize("kind,grid,normalization,message", [
        ("standard_two_slit", None, PEAK_SINGLE_SLIT, "unknown model kind"),
        (ModelKind.STANDARD_TWO_SLIT, None, "max", "unknown normalization"),
        # Both points on balanced fringe zeros, 1 + cos(pi) = 0 exactly.
        (ModelKind.GENERAL_TWO_SLIT,
         GridSpec(0.5 * fringe_period(REF_GEOM), 1.5 * fringe_period(REF_GEOM),
                  2), UNIT_INTEGRAL, "integrates to zero"),
    ])
    def test_rejects_bad_request(self, kind, grid, normalization, message):
        with pytest.raises(ValueError, match=message):
            sample_pattern(kind, REF_GEOM, grid, normalization)

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


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


plates = st.builds(
    lambda wavelength, width, ratio, distance: SlitGeometry(
        wavelength, width, width * ratio, distance),
    st.floats(3e-7, 2e-6), st.floats(2e-7, 5e-5), st.floats(1.05, 40.0),
    st.floats(1e-2, 5.0))


class TestPlateTerms:
    @settings(max_examples=60, deadline=None)
    @given(geom=plates, shift=st.floats(-3.0, 3.0),
           half=st.floats(0.05, 4.0), points=st.integers(2, 400),
           normalization=st.sampled_from([PEAK_SINGLE_SLIT, UNIT_INTEGRAL]),
           alpha=st.floats(0.0, 2.0), beta=st.floats(0.0, 2.0),
           order=st.permutations(list(ModelKind)))
    def test_shared_factors_give_the_bits_of_each_model_alone(
            self, geom, shift, half, points, normalization, alpha, beta,
            order):
        # Windows in envelope lobes around an offset from the plate's middle.
        lobe = geom.wavelength_m * geom.screen_distance_m / geom.slit_width_m
        grid = GridSpec((shift - half) * lobe, (shift + half) * lobe, points)
        terms = PlateTerms(geom, grid)
        for kind in order:  # each order of first use
            outcomes = []
            for shared in (terms, None):
                try:
                    outcomes.append(sample_pattern(
                        kind, geom, grid, normalization, alpha, beta,
                        terms=shared))
                except ValueError as exc:  # zero amplitudes or integral
                    outcomes.append(str(exc))
            together, alone = outcomes
            if isinstance(alone, str):
                assert together == alone
                continue
            assert np.array_equal(bits(together.x_m), bits(alone.x_m))
            assert np.array_equal(bits(together.intensity),
                                  bits(alone.intensity)), kind
            assert together.meta == alone.meta

    def test_public_formulas_are_the_model_formulas(self, ref_geom):
        grid = GridSpec(-0.03, 0.02, 1001)
        x = grid.x()
        formulas = {
            ModelKind.SINGLE_SLIT_A: lambda g, x: single_slit_intensity(
                g, x, g.slit_a_center_m),
            ModelKind.EMPTY_WAVE_A: empty_wave_a,
            ModelKind.EMPTY_WAVE_B: empty_wave_b,
            ModelKind.EMPTY_WAVE_SUM: empty_wave_sum,
            ModelKind.STANDARD_TWO_SLIT: standard_two_slit,
            ModelKind.STANDARD_FOCUSED_A: standard_focused_a,
            ModelKind.PURE_FRINGE: pure_fringe,
            ModelKind.GENERAL_TWO_SLIT: lambda g, x:
                general_two_slit_intensity(g, x, 0.7, 0.4),
        }
        terms = PlateTerms(ref_geom, grid)
        for kind, formula in formulas.items():
            pattern = sample_pattern(kind, ref_geom, grid, alpha=0.7,
                                     beta=0.4, terms=terms)
            values = formula(ref_geom, x)
            assert np.array_equal(bits(pattern.intensity), bits(values))
            # A formula's own array is the caller's to write to.
            assert values.flags.writeable
            assert bits(formula(ref_geom, x[7])) == bits(values[7])

    @pytest.mark.parametrize("other", [
        lambda geom, grid: PlateTerms(SlitGeometry(0.63e-6, 2e-6, 13e-6, 0.1),
                                      grid),
        lambda geom, grid: PlateTerms(geom, GridSpec(-0.03, 0.03, 1002)),
        lambda geom, grid: PlateTerms(geom, GridSpec(-0.03, 0.031, 1001)),
        lambda geom, grid: PlateTerms(geom, grid.x()),
    ])
    def test_terms_of_another_plate_or_grid_are_refused(self, other,
                                                        ref_geom):
        grid = GridSpec(-0.03, 0.03, 1001)
        terms = other(ref_geom, grid)
        for kind in ModelKind:
            with pytest.raises(ValueError, match="another plate or grid"):
                sample_pattern(kind, ref_geom, grid, terms=terms)
        with pytest.raises(ValueError, match="another plate or grid"):
            sample_pattern(ModelKind.EMPTY_WAVE_A, ref_geom, terms=terms)

    def test_shared_arrays_are_read_only(self, ref_geom):
        grid = GridSpec(-0.03, 0.03, 1001)
        terms = PlateTerms(ref_geom, grid)
        patterns = {kind: sample_pattern(kind, ref_geom, grid, terms=terms)
                    for kind in ModelKind}
        focused = patterns[ModelKind.STANDARD_FOCUSED_A]
        before = {kind: (p.x_m.copy(), p.intensity.copy())
                  for kind, p in patterns.items()}
        for kind in (ModelKind.SINGLE_SLIT_A, ModelKind.STANDARD_FOCUSED_A,
                     ModelKind.PURE_FRINGE):
            with pytest.raises(ValueError, match="read-only"):
                patterns[kind].intensity[0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            focused.x_m[0] = 0.0
        # A product is the pattern's own array; editing it reaches no other.
        patterns[ModelKind.EMPTY_WAVE_A].intensity[:] = 0.0
        for kind, (x, intensity) in before.items():
            assert np.array_equal(patterns[kind].x_m, x)
            if kind is not ModelKind.EMPTY_WAVE_A:
                assert np.array_equal(patterns[kind].intensity, intensity)
        assert np.array_equal(
            sample_pattern(ModelKind.EMPTY_WAVE_A, ref_geom, grid,
                           terms=terms).intensity,
            before[ModelKind.EMPTY_WAVE_A][1])
