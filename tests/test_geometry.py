import math

import pytest
from hypothesis import given, strategies as st

from whichway import (FeasibilityReport, SlitGeometry, check_feasibility,
                      fringe_period, half_fringe_angle, single_slit_intensity)

lengths = st.floats(min_value=1e-9, max_value=1e-3, allow_nan=False,
                    allow_infinity=False)


@st.composite
def geometries(draw):
    s = draw(st.floats(min_value=1e-7, max_value=1e-4))
    d = draw(st.floats(min_value=2.0, max_value=50.0)) * s
    wavelength = draw(st.floats(min_value=1e-8, max_value=1.9)) * d
    dist = draw(st.floats(min_value=2.0, max_value=1e6)) * d
    return SlitGeometry(wavelength, s, d, dist)


class TestSlitGeometry:
    def test_slit_centers(self, hene_geom):
        assert hene_geom.slit_a_center_m == -6.3e-6
        assert hene_geom.slit_b_center_m == +6.3e-6

    @pytest.mark.parametrize("field,value", [
        ("wavelength_m", 0.0),
        ("wavelength_m", -1e-6),
        ("slit_width_m", 0.0),
        ("slit_separation_m", -1.0),
        ("screen_distance_m", 0.0),
        ("wavelength_m", float("nan")),
        ("screen_distance_m", float("inf")),
    ])
    def test_rejects_nonpositive_or_nonfinite(self, field, value):
        kwargs = dict(wavelength_m=632.8e-9, slit_width_m=2e-6,
                      slit_separation_m=12.6e-6, screen_distance_m=0.1)
        kwargs[field] = value
        with pytest.raises(ValueError):
            SlitGeometry(**kwargs)

    def test_rejects_overlapping_slits(self):
        with pytest.raises(ValueError):
            SlitGeometry(632.8e-9, 10e-9, 5e-9, 0.1)
        with pytest.raises(ValueError):
            SlitGeometry(632.8e-9, 12.6e-6, 12.6e-6, 0.1)

    def test_rejects_screen_inside_plate(self):
        with pytest.raises(ValueError):
            SlitGeometry(632.8e-9, 2e-6, 12.6e-6, 5e-6)


class TestHalfFringeAngle:
    def test_hene_value(self, hene_geom):
        # arcsin(632.8e-9 / (2 * 12.6e-6))
        assert half_fringe_angle(hene_geom) == pytest.approx(
            0.02511375090367404, rel=1e-12)
        assert half_fringe_angle(hene_geom) == pytest.approx(25.1e-3,
                                                             abs=0.2e-3)

    def test_small_wavelength_limit(self):
        geom = SlitGeometry(1e-12, 2e-6, 12.6e-6, 0.1)
        exact = half_fringe_angle(geom)
        small = 0.5 * geom.wavelength_m / geom.slit_separation_m
        assert exact == pytest.approx(small, rel=1e-9)
        assert exact == pytest.approx(3.968e-8, rel=1e-3)

    def test_arcsine_value(self):
        geom = SlitGeometry(500e-9, 2e-6, 10e-6, 0.1)
        # arcsin(0.025)
        assert half_fringe_angle(geom) == pytest.approx(0.02500260489936114,
                                                        rel=1e-12)

    def test_no_overflow_where_2d_overflows(self):
        geom = SlitGeometry(1e308, 1e-6, 1e308, 1.5e308)
        # lambda / (2 d) reads 0 here; 0.5 lambda / d is the true ratio
        assert geom.wavelength_m / (2.0 * geom.slit_separation_m) == 0.0
        assert half_fringe_angle(geom) \
            == math.asin(0.5 * geom.wavelength_m / geom.slit_separation_m) \
            == math.asin(0.5)

    @given(geometries())
    def test_ratio_bits_unchanged(self, geom):
        # 0.5 lambda / d rounds as lambda / (2 d) wherever 2 d is finite
        assert half_fringe_angle(geom) \
            == math.asin(geom.wavelength_m / (2.0 * geom.slit_separation_m))

    def test_domain_error(self):
        geom = SlitGeometry(30e-6, 2e-6, 12.6e-6, 0.1)  # lambda/(2d) > 1
        with pytest.raises(ValueError):
            half_fringe_angle(geom)

    @given(geometries(), st.floats(min_value=1.01, max_value=1.5))
    def test_increasing_in_wavelength(self, geom, factor):
        bigger = SlitGeometry(geom.wavelength_m * factor, geom.slit_width_m,
                              geom.slit_separation_m, geom.screen_distance_m)
        if bigger.wavelength_m / (2 * bigger.slit_separation_m) > 1:
            return
        assert half_fringe_angle(bigger) > half_fringe_angle(geom)

    @given(geometries(), st.floats(min_value=1.01, max_value=1.5))
    def test_decreasing_in_separation(self, geom, factor):
        wider = SlitGeometry(geom.wavelength_m, geom.slit_width_m,
                             geom.slit_separation_m * factor,
                             geom.screen_distance_m)
        assert half_fringe_angle(wider) < half_fringe_angle(geom)


class TestFringePeriod:
    def test_value(self, ref_geom):
        assert fringe_period(ref_geom) == pytest.approx(5.25e-3, rel=1e-12)

    def test_hene_value(self):
        geom = SlitGeometry(633e-9, 2e-6, 12.6e-6, 0.1)
        assert fringe_period(geom) == pytest.approx(5.0238095238095233e-3,
                                                    rel=1e-12)

    def test_linearity_in_distance(self, ref_geom):
        double = SlitGeometry(ref_geom.wavelength_m, ref_geom.slit_width_m,
                              ref_geom.slit_separation_m,
                              2 * ref_geom.screen_distance_m)
        assert fringe_period(double) == pytest.approx(
            2 * fringe_period(ref_geom), rel=1e-15)

    @given(geometries())
    def test_round_trip_identity(self, geom):
        recovered = fringe_period(geom) * geom.slit_separation_m \
            / geom.screen_distance_m
        assert recovered == pytest.approx(geom.wavelength_m, rel=1e-13)


class TestEnvelopeZeros:
    @given(geometries(), st.sampled_from(["slit_a_center_m", "slit_b_center_m",
                                          None]))
    def test_intensity_vanishes_there(self, geom, center):
        # The first zeros of an envelope centered at c are c -+ lambda D / s.
        c = getattr(geom, center) if center else 0.0
        half = geom.wavelength_m * geom.screen_distance_m / geom.slit_width_m
        for x in (c - half, c + half):
            assert single_slit_intensity(geom, x, c) < 1e-15


class TestCheckFeasibility:
    def test_collimated(self, hene_geom):
        report = check_feasibility(hene_geom, focusing_angle_rad=1e-3,
                                   spot_width_m=10e-6)
        assert isinstance(report, FeasibilityReport)
        assert report.collimation_ok
        assert report.spot_fits_slit
        assert report.fraunhofer_ok
        assert report.all_ok
        assert report.messages == ()

    def test_blurred(self, hene_geom):
        report = check_feasibility(hene_geom, focusing_angle_rad=25e-3,
                                   spot_width_m=10e-6)
        assert not report.collimation_ok
        assert not report.all_ok
        assert any("spread" in m for m in report.messages)

    def test_oversized_spot(self, hene_geom):
        report = check_feasibility(hene_geom, focusing_angle_rad=1e-3,
                                   spot_width_m=20e-6)
        assert not report.spot_fits_slit
        assert len(report.messages) == 1

    def test_near_field_flag(self):
        geom = SlitGeometry(632.8e-9, 2e-6, 12.6e-6, 2e-4)
        report = check_feasibility(geom, 1e-3, 10e-6)
        assert not report.fraunhofer_ok

    def test_far_plate_threshold_overflows_to_inf(self):
        # (d + s)^2 overflows a float: the threshold reads inf, no exception
        geom = SlitGeometry(632.8e-9, 2e-6, 1e200, 1e201)
        report = check_feasibility(geom, 0.0, 1e-6)
        assert not report.fraunhofer_ok
        assert report.messages == (
            "screen distance 1e+201 m is below the far-field threshold "
            "inf m",)

    def test_rejects_bad_inputs(self, hene_geom):
        with pytest.raises(ValueError):
            check_feasibility(hene_geom, -1e-3, 10e-6)
        with pytest.raises(ValueError):
            check_feasibility(hene_geom, 1e-3, 0.0)

    @given(geometries(), st.floats(min_value=1e-6, max_value=0.1),
           st.floats(min_value=1e-7, max_value=1e-4))
    def test_pure_function(self, geom, theta, spot):
        assert check_feasibility(geom, theta, spot) == \
            check_feasibility(geom, theta, spot)

    @given(geometries(), st.floats(min_value=1e-6, max_value=0.1),
           st.floats(min_value=1e-7, max_value=1e-4))
    def test_collimation_threshold(self, geom, theta, spot):
        if geom.wavelength_m / (2 * geom.slit_separation_m) > 1:
            return
        report = check_feasibility(geom, theta, spot)
        phi = half_fringe_angle(geom)
        assert report.collimation_ok == (theta <= phi / 10)
        assert report.spot_fits_slit == (spot <= geom.slit_separation_m)
