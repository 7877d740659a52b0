import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from whichway import (ApertureSet, BesselBeam, ConvergenceError,
                      GaussianBeam, GridSpec, IntensityPattern,
                      PEAK_SINGLE_SLIT, PlaneWave, QuadratureSpec,
                      SlitGeometry, fraunhofer_amplitude, fringe_period,
                      half_fringe_angle, oracle_pattern, sample_pattern,
                      single_slit_aperture, single_slit_intensity,
                      standard_two_slit, two_slit_apertures, washout_pattern,
                      visibility_fringe_local, ModelKind)
from whichway import oracle as oracle_module
from whichway.oracle import _amplitude_fixed

REF_GEOM = SlitGeometry(0.63e-6, 2e-6, 12e-6, 0.1)
LAM_D = REF_GEOM.wavelength_m * REF_GEOM.screen_distance_m
LOBE = LAM_D / REF_GEOM.slit_width_m


def closed_form_interval(beam_free_x, lo, hi, geom):
    """Exact integral of exp(-i 2 pi x xi / (lambda D)) over [lo, hi]."""
    x = np.atleast_1d(np.asarray(beam_free_x, dtype=float))
    q = 2 * math.pi * x / (geom.wavelength_m * geom.screen_distance_m)
    width = hi - lo
    center = 0.5 * (lo + hi)
    u = 0.5 * q * width
    sinc = np.where(np.abs(u) < 1e-8, 1.0 - u * u / 6.0,
                    np.sin(np.where(u == 0, 1.0, u))
                    / np.where(u == 0, 1.0, u))
    return width * sinc * np.exp(-1j * q * center)


class TestApertureSet:
    def test_canonical_two_slit_bounds(self):
        apertures = two_slit_apertures(REF_GEOM)
        (a_lo, a_hi), (b_lo, b_hi) = apertures.intervals
        assert a_lo == pytest.approx(-7e-6)
        assert a_hi == pytest.approx(-5e-6)
        assert b_lo == pytest.approx(+5e-6)
        assert b_hi == pytest.approx(+7e-6)
        assert apertures.phases_rad == (0.0, 0.0)

    def test_single_slit_selection(self):
        ap_a = single_slit_aperture(REF_GEOM, "a")
        ap_b = single_slit_aperture(REF_GEOM, "b")
        assert ap_a.intervals[0][0] < 0 < ap_b.intervals[0][0]
        with pytest.raises(ValueError):
            single_slit_aperture(REF_GEOM, "c")

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            ApertureSet(intervals=((0.0, 2.0), (1.0, 3.0)),
                        phases_rad=(0.0, 0.0))

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            ApertureSet(intervals=((2.0, 1.0),), phases_rad=(0.0,))

    def test_rejects_phase_length_mismatch(self):
        with pytest.raises(ValueError):
            ApertureSet(intervals=((0.0, 1.0),), phases_rad=(0.0, 0.0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ApertureSet(intervals=(), phases_rad=())


class TestQuadratureSpec:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            QuadratureSpec(nodes_per_interval=4)
        with pytest.raises(ValueError):
            QuadratureSpec(relative_tolerance=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(relative_tolerance=1.5)
        with pytest.raises(ValueError):
            QuadratureSpec(max_refinements=0)


class TestFraunhoferAmplitude:
    def test_single_aperture_matches_envelope_shape(self):
        grid = np.linspace(-LOBE, LOBE, 4001)
        amp = fraunhofer_amplitude(PlaneWave(), single_slit_aperture(
            REF_GEOM, "a"), REF_GEOM, grid)
        intensity = np.abs(amp) ** 2
        intensity /= intensity.max()
        reference = single_slit_intensity(REF_GEOM, grid, 0.0)
        reference /= reference.max()
        assert np.max(np.abs(intensity - reference)) < 1e-9
        keep = reference > 1e-3
        rel = np.abs(intensity[keep] / reference[keep] - 1.0)
        assert np.max(rel) < 1e-9

    def test_single_aperture_complex_value(self):
        # full complex check including the carrier phase of the offset slit
        x = np.linspace(-0.02, 0.02, 257)
        aperture = single_slit_aperture(REF_GEOM, "b")
        amp = fraunhofer_amplitude(PlaneWave(), aperture, REF_GEOM, x)
        lo, hi = aperture.intervals[0]
        expected = closed_form_interval(x, lo, hi, REF_GEOM)
        assert np.max(np.abs(amp - expected)) < 1e-12 * (hi - lo)

    def test_two_apertures_match_product_form(self):
        grid = np.linspace(-LOBE, LOBE, 4001)
        amp = fraunhofer_amplitude(PlaneWave(), two_slit_apertures(REF_GEOM),
                                   REF_GEOM, grid)
        intensity = np.abs(amp) ** 2
        intensity /= intensity.max()
        reference = standard_two_slit(REF_GEOM, grid)
        reference /= reference.max()
        assert np.max(np.abs(intensity - reference)) < 1e-9

    def test_center_amplitude_is_total_open_width(self):
        amp = fraunhofer_amplitude(PlaneWave(), two_slit_apertures(REF_GEOM),
                                   REF_GEOM, 0.0)
        assert isinstance(amp, complex)
        assert amp.real == pytest.approx(2 * REF_GEOM.slit_width_m,
                                         rel=1e-12)
        assert abs(amp.imag) < 1e-20

    def test_linearity_over_apertures(self):
        x = np.linspace(-0.03, 0.03, 101)
        both = fraunhofer_amplitude(PlaneWave(), two_slit_apertures(REF_GEOM),
                                    REF_GEOM, x)
        only_a = fraunhofer_amplitude(
            PlaneWave(), single_slit_aperture(REF_GEOM, "a"), REF_GEOM, x)
        only_b = fraunhofer_amplitude(
            PlaneWave(), single_slit_aperture(REF_GEOM, "b"), REF_GEOM, x)
        assert np.max(np.abs(both - (only_a + only_b))) < 1e-18

    @pytest.mark.parametrize("beam", [
        PlaneWave(),
        GaussianBeam(waist_m=4e-6, center_m=0.0),
        BesselBeam(radial_wavenumber_per_m=3e5, center_m=0.0),
    ])
    def test_parity(self, beam):
        x = np.linspace(0.001, 0.03, 37)
        plus = fraunhofer_amplitude(beam, two_slit_apertures(REF_GEOM),
                                    REF_GEOM, x)
        minus = fraunhofer_amplitude(beam, two_slit_apertures(REF_GEOM),
                                     REF_GEOM, -x)
        assert np.max(np.abs(np.abs(plus) - np.abs(minus))) < 1e-12 \
            * np.max(np.abs(plus))

    def test_quadrature_exactness_rule(self):
        # n >= 10 + 4 len |x| / (lambda D) integrates the kernel to 1e-12
        aperture = single_slit_aperture(REF_GEOM, "a")
        lo, hi = aperture.intervals[0]
        for x_max in (0.005, 0.02, 0.05):
            x = np.linspace(-x_max, x_max, 41)
            needed = 10 + int(math.ceil(4 * (hi - lo) * x_max / LAM_D))
            approx = _amplitude_fixed(PlaneWave(), aperture, REF_GEOM, x,
                                      needed)
            exact = closed_form_interval(x, lo, hi, REF_GEOM)
            rel = np.max(np.abs(approx - exact)) / np.max(np.abs(exact))
            assert rel < 1e-12

    def test_convergence_error(self):
        # ~3000 oscillations across each slit need far more nodes than the
        # refinement cap allows
        with pytest.raises(ConvergenceError) as excinfo:
            fraunhofer_amplitude(PlaneWave(), two_slit_apertures(REF_GEOM),
                                 REF_GEOM, np.array([0.0, 100.0]))
        err = excinfo.value
        assert err.last_estimate is not None
        assert err.previous_estimate is not None
        assert err.worst_x_m == pytest.approx(100.0)
        assert "100" in str(err)

    def test_rejects_non_finite_x(self):
        with pytest.raises(ValueError):
            fraunhofer_amplitude(PlaneWave(), two_slit_apertures(REF_GEOM),
                                 REF_GEOM, float("nan"))

    def test_empty_grid_gives_empty_amplitude(self):
        amp = fraunhofer_amplitude(PlaneWave(), two_slit_apertures(REF_GEOM),
                                   REF_GEOM, np.array([]))
        assert amp.shape == (0,)
        assert amp.dtype == np.complex128
        batch = fraunhofer_amplitude(PlaneWave(),
                                     two_slit_apertures(REF_GEOM), REF_GEOM,
                                     np.array([]), shifts_m=[0.0, 1e-3])
        assert batch.shape == (0, 2)

    def test_deterministic(self):
        x = np.linspace(-0.01, 0.01, 64)
        first = fraunhofer_amplitude(PlaneWave(), two_slit_apertures(
            REF_GEOM), REF_GEOM, x)
        second = fraunhofer_amplitude(PlaneWave(), two_slit_apertures(
            REF_GEOM), REF_GEOM, x)
        assert np.array_equal(first, second)


def per_shift_columns(beam, apertures, x, shifts, quad=None):
    return np.stack([fraunhofer_amplitude(beam, apertures, REF_GEOM, x - s,
                                          quad) for s in shifts], axis=1)


class TestShiftedColumns:
    """``shifts_m`` batches one far field at many screen offsets."""

    @pytest.mark.parametrize("beam", [
        PlaneWave(),
        GaussianBeam(waist_m=3e-6, center_m=REF_GEOM.slit_a_center_m),
        BesselBeam(radial_wavenumber_per_m=1.2e6,
                   center_m=REF_GEOM.slit_a_center_m),
    ])
    def test_columns_match_per_shift_calls(self, beam):
        x = np.linspace(-1.2 * LOBE, 1.2 * LOBE, 513)
        shifts = REF_GEOM.screen_distance_m * np.sin(
            np.linspace(-0.025, 0.025, 7))
        apertures = two_slit_apertures(REF_GEOM, phase_b_rad=0.5 * math.pi)
        batch = fraunhofer_amplitude(beam, apertures, REF_GEOM, x,
                                     shifts_m=shifts)
        expected = per_shift_columns(beam, apertures, x, shifts)
        assert batch.shape == (x.size, shifts.size)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(batch - expected)) <= 1e-13 * scale

    def test_columns_converge_at_their_own_levels(self, monkeypatch):
        # near x = 0 the unshifted column converges at 64 nodes; the one
        # shifted by 0.5 m sees a fast kernel and needs more doublings
        levels = []
        fixed = oracle_module._amplitude_fixed

        def spy(beam, apertures, geom, x, n, shifts=None):
            levels.append((n, shifts.size))
            return fixed(beam, apertures, geom, x, n, shifts)

        monkeypatch.setattr(oracle_module, "_amplitude_fixed", spy)
        x = np.linspace(-1e-3, 1e-3, 101)
        shifts = np.array([0.0, 0.5])
        apertures = two_slit_apertures(REF_GEOM)
        batch = fraunhofer_amplitude(PlaneWave(), apertures, REF_GEOM, x,
                                     shifts_m=shifts)
        assert levels[:2] == [(32, 2), (64, 2)]
        assert len(levels) > 2
        assert all(cols == 1 for _, cols in levels[2:])
        monkeypatch.undo()
        expected = per_shift_columns(PlaneWave(), apertures, x, shifts)
        # the shifted column is a small remainder of a fast oscillation, so
        # rounding is measured against the batch's largest amplitude
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(batch - expected)) <= 1e-13 * scale

    def test_single_shift_is_the_plain_call(self):
        x = np.linspace(-LOBE, LOBE, 301)
        apertures = two_slit_apertures(REF_GEOM)
        plain = fraunhofer_amplitude(PlaneWave(), apertures, REF_GEOM, x)
        batch = fraunhofer_amplitude(PlaneWave(), apertures, REF_GEOM, x,
                                     shifts_m=[0.0])
        assert np.array_equal(batch[:, 0], plain)

    def test_unconverged_column_names_shift_and_x(self):
        with pytest.raises(ConvergenceError) as excinfo:
            fraunhofer_amplitude(PlaneWave(), two_slit_apertures(REF_GEOM),
                                 REF_GEOM, np.array([0.0, 1e-3]),
                                 shifts_m=[0.0, -100.0, 2e-3])
        err = excinfo.value
        assert err.shift_m == -100.0
        assert err.worst_x_m in (0.0, 1e-3)
        assert "at shift -100 m" in str(err)
        assert f"x = {err.worst_x_m:.6g} m" in str(err)
        assert err.last_estimate.shape == (2,)
        assert err.previous_estimate.shape == (2,)

    def test_rejects_non_finite_shift(self):
        with pytest.raises(ValueError):
            fraunhofer_amplitude(PlaneWave(), two_slit_apertures(REF_GEOM),
                                 REF_GEOM, np.zeros(3),
                                 shifts_m=[0.0, float("inf")])

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=-0.4, max_value=0.4))
    def test_tilted_plane_wave_is_shifted_by_d_sin(self, tilt):
        x = np.linspace(-0.03, 0.03, 201)
        apertures = two_slit_apertures(REF_GEOM)
        shift = REF_GEOM.screen_distance_m * math.sin(tilt)
        tilted = fraunhofer_amplitude(PlaneWave(tilt_rad=tilt), apertures,
                                      REF_GEOM, x)
        moved = fraunhofer_amplitude(PlaneWave(), apertures, REF_GEOM,
                                     x - shift)
        batch = fraunhofer_amplitude(PlaneWave(), apertures, REF_GEOM, x,
                                     shifts_m=[shift])
        scale = np.max(np.abs(tilted))
        assert np.max(np.abs(tilted - moved)) <= 1e-12 * scale
        assert np.max(np.abs(tilted - batch[:, 0])) <= 1e-12 * scale

    def test_small_angle_shift_misses_a_large_tilt(self):
        x = np.linspace(-0.03, 0.03, 201)
        apertures = two_slit_apertures(REF_GEOM)
        tilted = np.abs(fraunhofer_amplitude(
            PlaneWave(tilt_rad=0.4), apertures, REF_GEOM, x)) ** 2
        small_angle = np.abs(fraunhofer_amplitude(
            PlaneWave(), apertures, REF_GEOM,
            x - REF_GEOM.screen_distance_m * 0.4)) ** 2
        assert np.max(np.abs(tilted - small_angle)) > 1e-2 * tilted.max()


class TestOracleWashout:
    def test_matches_tilted_beams_averaged_then_normalized(self):
        # each member is a genuinely tilted plane wave, so this checks the
        # D sin(t) shift and the single normalization of the average
        grid = GridSpec(-0.03, 0.03, 401)
        apertures = two_slit_apertures(REF_GEOM)
        theta, n_tilts = 0.4, 9
        washed = oracle_pattern(PlaneWave(), apertures, REF_GEOM, grid,
                                theta_rad=theta, n_tilts=n_tilts)
        acc = np.zeros(grid.points)
        for tilt in np.linspace(-theta, theta, n_tilts):
            acc += np.abs(fraunhofer_amplitude(
                PlaneWave(tilt_rad=float(tilt)), apertures, REF_GEOM,
                grid.x())) ** 2
        acc /= n_tilts
        assert washed.meta["peak_abs"] == pytest.approx(acc.max(),
                                                        rel=1e-12)
        assert np.max(np.abs(washed.intensity - acc / acc.max())) < 1e-12
        assert washed.intensity.max() == 1.0

    def test_zero_spread_is_the_plain_pattern(self):
        grid = GridSpec(-LOBE, LOBE, 1001)
        apertures = two_slit_apertures(REF_GEOM)
        plain = oracle_pattern(PlaneWave(), apertures, REF_GEOM, grid)
        washed = oracle_pattern(PlaneWave(), apertures, REF_GEOM, grid,
                                theta_rad=0.0, n_tilts=101)
        assert np.array_equal(plain.intensity, washed.intensity)
        assert washed.meta["model"] == "oracle"

    def test_meta_records_spread(self):
        grid = GridSpec(-LOBE, LOBE, 501)
        washed = oracle_pattern(PlaneWave(), two_slit_apertures(REF_GEOM),
                                REF_GEOM, grid, theta_rad=1e-3, n_tilts=11)
        assert washed.meta["model"] == "washout(oracle)"
        assert washed.meta["washout_theta_rad"] == 1e-3
        assert washed.meta["washout_tilts"] == 11

    def test_rejects_bad_arguments(self):
        grid = GridSpec(-LOBE, LOBE, 101)
        apertures = two_slit_apertures(REF_GEOM)
        for theta, n_tilts in ((-1e-3, 11), (1e-3, 10), (1e-3, 0)):
            with pytest.raises(ValueError):
                oracle_pattern(PlaneWave(), apertures, REF_GEOM, grid,
                               theta_rad=theta, n_tilts=n_tilts)


class TestOracleMemory:
    """Peak traced allocation of fine oracle runs stays under a fixed limit:
    the kernel is built in row blocks and washout tilts in column blocks."""

    LIMIT_BYTES = 20 * 2**20

    @staticmethod
    def traced_peak(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_fine_grid_at_512_nodes(self):
        # one unblocked kernel here would be 20000 x 512 x 16 B = 164 MB
        x = np.linspace(-0.25 * LOBE, 0.25 * LOBE, 20_000)
        quad = QuadratureSpec(nodes_per_interval=256, max_refinements=1)
        peak = self.traced_peak(lambda: fraunhofer_amplitude(
            PlaneWave(), single_slit_aperture(REF_GEOM, "a"), REF_GEOM, x,
            quad))
        assert peak < self.LIMIT_BYTES

    def test_many_tilts_on_a_fine_grid(self):
        # one unblocked estimate for all tilts would be
        # 20000 x 101 x 16 B = 32 MB, and refinement holds two of them
        grid = GridSpec(-0.25 * LOBE, 0.25 * LOBE, 20_000)
        quad = QuadratureSpec(nodes_per_interval=8, max_refinements=1)
        peak = self.traced_peak(lambda: oracle_pattern(
            PlaneWave(), single_slit_aperture(REF_GEOM, "a"), REF_GEOM, grid,
            quad, theta_rad=1e-3, n_tilts=101))
        assert peak < self.LIMIT_BYTES


class TestOraclePattern:
    def test_peak_normalized_with_scale_in_meta(self):
        grid = GridSpec(-LOBE, LOBE, 1001)
        pattern = oracle_pattern(PlaneWave(), two_slit_apertures(REF_GEOM),
                                 REF_GEOM, grid)
        assert pattern.intensity.max() == pytest.approx(1.0, rel=1e-15)
        assert pattern.normalization == PEAK_SINGLE_SLIT
        assert pattern.meta["unit_scale"] == 1.0
        assert pattern.meta["peak_abs"] > 0.0
        assert pattern.meta["model"] == "oracle"

    def test_low_visibility_for_focused_gaussian(self):
        grid = GridSpec(REF_GEOM.slit_a_center_m - 1.2 * LOBE,
                        REF_GEOM.slit_a_center_m + 1.2 * LOBE, 4001)
        beam = GaussianBeam(waist_m=3e-6, center_m=REF_GEOM.slit_a_center_m)
        pattern = oracle_pattern(beam, two_slit_apertures(REF_GEOM),
                                 REF_GEOM, grid)
        assert visibility_fringe_local(pattern, REF_GEOM) < 0.05


class TestWashout:
    @staticmethod
    def make_base(grid):
        x = grid.x()
        shift_scale = REF_GEOM.screen_distance_m

        def base(tilt):
            shifted = GridSpec(grid.x_min_m - shift_scale * tilt,
                               grid.x_max_m - shift_scale * tilt, grid.points)
            pattern = sample_pattern(ModelKind.STANDARD_TWO_SLIT, REF_GEOM,
                                     shifted)
            return IntensityPattern(x, pattern.intensity,
                                    pattern.normalization, dict(pattern.meta))

        return base

    def test_zero_spread_is_identity(self):
        grid = GridSpec(-LOBE, LOBE, 2001)
        base = self.make_base(grid)
        washed = washout_pattern(base, 0.0, 101)
        assert np.array_equal(washed.intensity, base(0.0).intensity)

    def test_full_half_fringe_angle_blurs(self):
        grid = GridSpec(-LOBE, LOBE, 4001)
        phi = half_fringe_angle(REF_GEOM)
        washed = washout_pattern(self.make_base(grid), phi, 101)
        assert visibility_fringe_local(washed, REF_GEOM) < 0.02

    def test_tenth_of_half_fringe_angle_keeps_contrast(self):
        grid = GridSpec(-LOBE, LOBE, 4001)
        phi = half_fringe_angle(REF_GEOM)
        washed = washout_pattern(self.make_base(grid), phi / 10, 101)
        assert visibility_fringe_local(washed, REF_GEOM) >= 0.98

    def test_meta_records_spread(self):
        grid = GridSpec(-LOBE, LOBE, 1001)
        washed = washout_pattern(self.make_base(grid), 1e-3, 11)
        assert washed.meta["washout_theta_rad"] == 1e-3
        assert washed.meta["washout_tilts"] == 11

    def test_rejects_bad_arguments(self):
        grid = GridSpec(-LOBE, LOBE, 101)
        base = self.make_base(grid)
        with pytest.raises(ValueError):
            washout_pattern(base, -1e-3, 11)
        with pytest.raises(ValueError):
            washout_pattern(base, 1e-3, 10)  # even count
        with pytest.raises(ValueError):
            washout_pattern(base, 1e-3, 0)

    def test_rejects_generator_changing_grid(self):
        grid = GridSpec(-LOBE, LOBE, 101)

        def bad(tilt):
            shifted = GridSpec(-LOBE + tilt, LOBE + tilt, 101)
            return sample_pattern(ModelKind.STANDARD_TWO_SLIT, REF_GEOM,
                                  shifted)

        with pytest.raises(ValueError):
            washout_pattern(bad, 1e-3, 3)
