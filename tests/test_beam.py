import cmath
import decimal
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from whichway import (BESSEL_J0_FIRST_ZERO, BesselBeam, GaussianBeam,
                      PlaneWave, SlitGeometry, amplitude_at, bessel_j0,
                      bessel_core_radius, bessel_tilt_shift_angle,
                      fringe_period, rayleigh_range, skew_angle)


# Plate positions drawn as multiples of 2^-40 m: sums and differences of
# such values below 2^13 m are exact in floating point.
GRID = 2.0**-40


def on_grid(limit: float):
    """Multiples of GRID within [-limit, limit]."""
    bound = int(limit / GRID)
    return st.integers(-bound, bound).map(lambda k: k * GRID)


def j0_series_oracle(x: float, terms: int = 30) -> float:
    """Plain term-by-term power series, the independent reference for J0."""
    t = 0.25 * x * x
    term = 1.0
    total = 1.0
    for k in range(1, terms):
        term *= -t / (k * k)
        total += term
    return total


def j0_integral_oracle(x, n: int = 20000):
    """Integral representation (1/pi) * int_0^pi cos(x sin t) dt, midpoint."""
    t = (np.arange(n) + 0.5) * math.pi / n
    return np.cos(np.outer(np.atleast_1d(x), np.sin(t))).mean(axis=1)


class TestRayleighRange:
    def test_headline_value(self):
        z = rayleigh_range(70e-6, 633e-9)
        assert z == pytest.approx(0.024318805691295395, rel=1e-12)
        assert z == pytest.approx(2.43e-2, abs=0.02e-2)

    def test_small_waist(self):
        assert rayleigh_range(10e-6, 632.8e-9) == pytest.approx(
            4.964590160540128e-4, rel=1e-12)
        assert rayleigh_range(1e-12, 632.8e-9) < 1e-17

    @given(st.floats(min_value=1e-7, max_value=1e-2),
           st.floats(min_value=1e-8, max_value=1e-5))
    def test_quadratic_scaling(self, waist, wavelength):
        assert rayleigh_range(2 * waist, wavelength) == \
            4 * rayleigh_range(waist, wavelength)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rayleigh_range(0.0, 633e-9)
        with pytest.raises(ValueError):
            rayleigh_range(70e-6, -633e-9)


class TestSkewAngle:
    def test_values(self):
        assert skew_angle(4e-6, 3e-3) == pytest.approx(1.3333325432107193e-3,
                                                       rel=1e-12)
        assert skew_angle(0.0, 1.0) == 0.0
        assert skew_angle(20e-6, 0.5) == pytest.approx(3.999999997866667e-5,
                                                       rel=1e-12)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            skew_angle(4e-6, 0.0)


class TestBesselJ0:
    def test_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_first_two_zeros(self):
        assert abs(bessel_j0(2.4048256)) < 1e-6
        assert abs(bessel_j0(5.5200781)) < 1e-6
        assert abs(bessel_j0(BESSEL_J0_FIRST_ZERO)) < 1e-14

    @given(st.floats(min_value=-8.0, max_value=8.0))
    def test_series_oracle_small_argument(self, x):
        assert bessel_j0(x) == pytest.approx(j0_series_oracle(x), abs=1e-9)

    def test_integral_oracle_wide_range(self):
        x = np.linspace(-50.0, 50.0, 1501)
        assert np.max(np.abs(bessel_j0(x) - j0_integral_oracle(x))) < 1e-7

    def test_integral_oracle_branch_region(self):
        # tightest scrutiny where the evaluation strategy switches
        x = np.linspace(10.0, 14.0, 801)
        assert np.max(np.abs(bessel_j0(x) - j0_integral_oracle(x))) < 1e-9

    @given(st.floats(min_value=-60.0, max_value=60.0))
    def test_even_and_bounded(self, x):
        assert bessel_j0(-x) == bessel_j0(x)
        assert abs(bessel_j0(x)) <= 1.0 + 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            bessel_j0(float("nan"))
        with pytest.raises(ValueError):
            bessel_j0(float("inf"))

    def test_huge_argument_warns_nothing(self):
        # x * x overflows above about 1.3e154; the Hankel form's 1 / x^2
        # is then 0, and |J0(x)| <= sqrt(2 / (pi x)) is about 8e-81
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = bessel_j0(np.array([1e160]))
        assert np.isfinite(out[0])
        assert abs(out[0]) <= math.sqrt(2.0 / (math.pi * 1e160))

    def test_array_input(self):
        out = bessel_j0(np.array([0.0, 1.0, 30.0]))
        assert isinstance(out, np.ndarray)
        assert out[0] == 1.0
        assert isinstance(bessel_j0(1.0), float)


def j0_decimal(x: float) -> float:
    """J0(x) from its power series, summed in decimal at 60 digits.  The
    terms reach about 1e41 at x = 100, so the sum keeps about 1e-19; the
    loop runs past the largest term until the terms fall below 1e-30."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        t = decimal.Decimal(x) ** 2 / 4
        term = total = decimal.Decimal(1)
        k = 0
        while k <= x or abs(term) > decimal.Decimal("1e-30"):
            k += 1
            term = -term * t / (k * k)
            total += term
        return float(total)


class TestBesselJ0Reference:
    def test_reference_series_known_values(self):
        assert j0_decimal(0.0) == 1.0
        # J0(1) and J0(100) from mpmath at 50 digits, rounded to double
        assert j0_decimal(1.0) == pytest.approx(0.7651976865579666, abs=1e-16)
        assert j0_decimal(100.0) == pytest.approx(0.019985850304223122,
                                                  abs=1e-16)
        assert abs(j0_decimal(BESSEL_J0_FIRST_ZERO)) < 1e-15

    def test_within_2e_15_on_0_to_100(self):
        # 2,001 even points and the switch at 30, both sides
        x = np.concatenate((np.linspace(0.0, 100.0, 2001),
                            30.0 + np.arange(-4, 5) * 2.0**-48))
        reference = np.array([j0_decimal(float(v)) for v in x])
        assert np.max(np.abs(bessel_j0(x) - reference)) <= 2e-15


class TestBesselBeamGeometry:
    def test_core_radius_matching_separation(self):
        # k_r that puts the first dark ring one slit separation away
        k_r = BESSEL_J0_FIRST_ZERO / 12.6e-6
        assert k_r == pytest.approx(1.9086e5, rel=1e-4)
        assert bessel_core_radius(k_r) == pytest.approx(12.6e-6, rel=1e-12)

    def test_core_radius_value(self):
        assert bessel_core_radius(2.4048e6) == pytest.approx(1.0e-6, rel=1e-4)

    def test_core_radius_shrinks(self):
        assert bessel_core_radius(1e8) < bessel_core_radius(1e5)
        with pytest.raises(ValueError):
            bessel_core_radius(0.0)

    def test_tilt_shift_angle(self, hene_geom):
        tilt = bessel_tilt_shift_angle(hene_geom)
        assert tilt == pytest.approx(0.012555555555555556, rel=1e-12)
        assert tilt == pytest.approx(12.6e-3, abs=0.2e-3)

    def test_tilt_shift_small_wavelength(self):
        geom = SlitGeometry(1e-12, 2e-6, 12.6e-6, 0.1)
        assert bessel_tilt_shift_angle(geom) < 1e-7

    def test_screen_shift_is_quarter_period(self, hene_geom):
        shift = hene_geom.screen_distance_m * bessel_tilt_shift_angle(
            hene_geom)
        assert shift == pytest.approx(fringe_period(hene_geom) / 4, rel=1e-12)
        assert shift == pytest.approx(1.2555555555555556e-3, rel=1e-12)


class TestBeamValidation:
    def test_plane_wave_tilt_bounds(self):
        PlaneWave(tilt_rad=1.5)
        with pytest.raises(ValueError):
            PlaneWave(tilt_rad=math.pi / 2)
        with pytest.raises(ValueError):
            PlaneWave(tilt_rad=-2.0)

    def test_gaussian_waist_positive(self):
        with pytest.raises(ValueError):
            GaussianBeam(waist_m=0.0)
        with pytest.raises(ValueError):
            GaussianBeam(waist_m=-1e-6)

    def test_bessel_wavenumber_positive(self):
        with pytest.raises(ValueError):
            BesselBeam(radial_wavenumber_per_m=0.0)

    @pytest.mark.parametrize("make,message", [
        (lambda: PlaneWave(tilt_rad=math.nan), "tilt_rad must be finite"),
        (lambda: GaussianBeam(waist_m=3e-6, center_m=math.inf),
         "center_m must be finite"),
        (lambda: BesselBeam(radial_wavenumber_per_m=1.2e6,
                            center_m=math.nan), "center_m must be finite"),
    ])
    def test_rejects_non_finite(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


class TestAmplitudeAt:
    def test_plane_wave_normal_incidence(self):
        assert amplitude_at(PlaneWave(), 3.7e-6, 632.8e-9) == 1.0 + 0.0j

    def test_plane_wave_tilt_phase(self):
        beam = PlaneWave(tilt_rad=1e-3)
        xi = 5e-6
        amp = amplitude_at(beam, xi, 632.8e-9)
        expected = cmath.exp(1j * 2 * math.pi / 632.8e-9
                             * math.sin(1e-3) * xi)
        assert amp == pytest.approx(expected, rel=1e-12)
        assert abs(amp) == pytest.approx(1.0, rel=1e-12)

    def test_gaussian_one_waist_out(self):
        beam = GaussianBeam(waist_m=5e-6, center_m=0.0)
        amp = amplitude_at(beam, 5e-6, 632.8e-9)
        assert amp == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_bessel_first_dark_ring_on_far_slit(self):
        beam = BesselBeam(radial_wavenumber_per_m=1.9086e5, center_m=-6.3e-6)
        amp = amplitude_at(beam, +6.3e-6, 632.8e-9)
        assert abs(amp) < 1e-4

    def test_bessel_signed_rings(self):
        k_r = 1e6
        signed = BesselBeam(radial_wavenumber_per_m=k_r)
        rectified = BesselBeam(radial_wavenumber_per_m=k_r,
                               ring_phase_flips=False)
        xi = 3.8 / k_r  # inside the first ring, where J0 < 0
        assert amplitude_at(signed, xi, 632.8e-9).real < 0
        assert amplitude_at(rectified, xi, 632.8e-9).real > 0
        assert abs(amplitude_at(signed, xi, 632.8e-9)) == pytest.approx(
            abs(amplitude_at(rectified, xi, 632.8e-9)), rel=1e-12)

    def test_array_sampling(self):
        beam = GaussianBeam(waist_m=5e-6)
        xi = np.linspace(-1e-5, 1e-5, 11)
        amp = amplitude_at(beam, xi, 632.8e-9)
        assert amp.shape == xi.shape
        assert amp.dtype == np.complex128

    @settings(max_examples=40)
    @given(st.floats(min_value=-1e-4, max_value=1e-4),
           st.floats(min_value=1e-7, max_value=1e-4),
           st.floats(min_value=-5e-5, max_value=5e-5))
    def test_unit_peak_bound(self, xi, waist, center):
        for beam in (PlaneWave(tilt_rad=0.3),
                     GaussianBeam(waist_m=waist, center_m=center),
                     BesselBeam(radial_wavenumber_per_m=1e6,
                                center_m=center)):
            assert abs(amplitude_at(beam, xi, 632.8e-9)) <= 1.0 + 1e-12

    @settings(max_examples=40)
    @given(on_grid(1e-4), st.floats(min_value=1e-7, max_value=1e-4),
           on_grid(5e-5))
    @example(offset=round(5.575901294634985e-05 * 2**40) * GRID,
             waist=6.103515625e-05, center=round(5e-05 * 2**40) * GRID)
    def test_even_about_center(self, offset, waist, center):
        # On the grid, center +- offset and their distances to the center
        # are exact, so the two amplitudes must agree bit for bit.
        gauss = GaussianBeam(waist_m=waist, center_m=center)
        bessel = BesselBeam(radial_wavenumber_per_m=1e6, center_m=center)
        for beam in (gauss, bessel):
            left = amplitude_at(beam, center - offset, 632.8e-9)
            right = amplitude_at(beam, center + offset, 632.8e-9)
            assert left == right

    def test_rejects_bad_wavelength(self):
        with pytest.raises(ValueError):
            amplitude_at(PlaneWave(), 0.0, 0.0)

    def test_rejects_non_finite_position(self):
        with pytest.raises(ValueError):
            amplitude_at(PlaneWave(), float("nan"), 632.8e-9)

    def test_rejects_unknown_profile(self):
        with pytest.raises(TypeError, match="unknown beam profile str"):
            amplitude_at("plane", 0.0, 632.8e-9)
