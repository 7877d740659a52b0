"""Illumination profiles across the slit plane and their derived scales.

A beam profile gives the complex field amplitude at plate coordinate xi,
normalized so |amplitude| <= 1.  Profiles carry no z-dependence; focusing
properties enter through the derived scales (Rayleigh range, core radius)
and through the feasibility checks in :mod:`whichway.geometry`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .geometry import SlitGeometry

# First zero of J0; sets the Bessel core radius.
BESSEL_J0_FIRST_ZERO = 2.404825557695773


@dataclass(frozen=True)
class PlaneWave:
    """Uniform plane wave, optionally tilted in the slit plane."""

    tilt_rad: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.tilt_rad):
            raise ValueError("tilt_rad must be finite")
        if abs(self.tilt_rad) >= math.pi / 2:
            raise ValueError("tilt_rad must lie in (-pi/2, pi/2)")


@dataclass(frozen=True)
class GaussianBeam:
    """Gaussian amplitude exp(-((xi - center)/waist)^2).

    ``waist_m`` is the 1/e^2 intensity radius w0.
    """

    waist_m: float
    center_m: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.waist_m) and self.waist_m > 0.0):
            raise ValueError("waist_m must be positive and finite")
        if not math.isfinite(self.center_m):
            raise ValueError("center_m must be finite")


@dataclass(frozen=True)
class BesselBeam:
    """Zero-order Bessel profile J0(k_r (xi - center)).

    With ``ring_phase_flips`` the signed J0 is used, so successive rings
    alternate in sign (each ring is pi out of phase with its neighbor).
    Without it the field is |J0|: all rings in phase.
    """

    radial_wavenumber_per_m: float
    center_m: float = 0.0
    ring_phase_flips: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.radial_wavenumber_per_m)
                and self.radial_wavenumber_per_m > 0.0):
            raise ValueError("radial_wavenumber_per_m must be positive and finite")
        if not math.isfinite(self.center_m):
            raise ValueError("center_m must be finite")


BeamProfile = Union[PlaneWave, GaussianBeam, BesselBeam]


def rayleigh_range(waist_m: float, wavelength_m: float) -> float:
    """Rayleigh range pi w0^2 / lambda of a Gaussian focus."""
    if waist_m <= 0.0 or wavelength_m <= 0.0:
        raise ValueError("waist_m and wavelength_m must be positive")
    return math.pi * waist_m * waist_m / wavelength_m


def skew_angle(displacement_m: float, distance_m: float) -> float:
    """Tilt atan(displacement / distance) of an off-center focusing cone."""
    if distance_m <= 0.0:
        raise ValueError("distance_m must be positive")
    return math.atan(displacement_m / distance_m)


def bessel_core_radius(radial_wavenumber_per_m: float) -> float:
    """Radius of the central Bessel core: first J0 zero over k_r."""
    if radial_wavenumber_per_m <= 0.0:
        raise ValueError("radial_wavenumber_per_m must be positive")
    return BESSEL_J0_FIRST_ZERO / radial_wavenumber_per_m


def bessel_tilt_shift_angle(geom: SlitGeometry) -> float:
    """Tilt angle equivalent to a quarter-wave path offset between the slits.

    A relative phase of pi/2 between the slit fields acts on the screen like
    an incoming tilt of (lambda/4) / d; the pattern shifts by D times this,
    i.e. one quarter of a fringe period.
    """
    return (geom.wavelength_m / 4.0) / geom.slit_separation_m


# ---------------------------------------------------------------------------
# J0, evaluated in-repo so no special-function library is needed.
#
# |x| <= 30: the 24-point midpoint rule on Bessel's integral
# J0(x) = (2/pi) int_0^{pi/2} cos(x sin t) dt, an (n, 24) array of cosines
# for n values.  The integrand is even and pi-periodic in t, so this is the
# periodic trapezoid rule; its error -2 J_96(x) + 2 J_192(x) - ... is below
# 1e-35 at x = 30, and rounding is all that is left.
# |x| >  30: Hankel asymptotic form sqrt(2/(pi x)) (P cos w - Q sin w),
# w = x - pi/4, with P and x Q polynomials in 1/x^2 whose 12 coefficients
# come from a_k = -a_{k-1} (2k-1)^2 / (8k).
# Against a high-precision reference the worst absolute error is 6.7e-16 on
# [0, 100], with no step at the switch, and 1.3e-15 out to 1,000.
# ---------------------------------------------------------------------------

_J0_MIDPOINT_SINES = np.sin((np.arange(24) + 0.5) * (math.pi / 48))
_J0_HANKEL_A = tuple(itertools.accumulate(
    range(1, 12), lambda a, k: -a * (2 * k - 1) ** 2 / (8.0 * k),
    initial=1.0))
# P = sum_m (-1)^m a_2m z^m and x Q = sum_m (-1)^m a_2m+1 z^m, z = 1/x^2,
# highest power first for np.polyval.
_J0_HANKEL_P = [(-1) ** m * a for m, a in enumerate(_J0_HANKEL_A[0::2])][::-1]
_J0_HANKEL_Q = [(-1) ** m * a for m, a in enumerate(_J0_HANKEL_A[1::2])][::-1]


def _j0_asymptotic(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # x * x = inf gives z2 = 0
        z2 = 1.0 / (x * x)
    p = np.polyval(_J0_HANKEL_P, z2)
    q = np.polyval(_J0_HANKEL_Q, z2) / x
    w = x - 0.25 * math.pi
    return np.sqrt(2.0 / (math.pi * x)) * (p * np.cos(w) - q * np.sin(w))


def bessel_j0(x):
    """J0(x) for scalar or array argument; inputs must be finite.

    Absolute error below 7e-16 on [-100, 100] (see the comment above),
    exactly 1.0 at 0, and even in x.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("bessel_j0 requires finite input")
    ax = np.abs(arr)
    out = np.empty_like(ax)
    near = ax <= 30.0
    if np.any(near):
        out[near] = np.cos(np.multiply.outer(ax[near], _J0_MIDPOINT_SINES)
                           ).sum(axis=-1) / _J0_MIDPOINT_SINES.size
    if np.any(~near):
        out[~near] = _j0_asymptotic(ax[~near])
    if arr.ndim == 0:
        return float(out)
    return out


def amplitude_at(beam: BeamProfile, xi_m, wavelength_m: float):
    """Complex field amplitude of ``beam`` at plate coordinate(s) ``xi_m``.

    Always returns complex values; |amplitude| <= 1 for every profile.
    """
    if wavelength_m <= 0.0:
        raise ValueError("wavelength_m must be positive")
    xi = np.asarray(xi_m, dtype=float)
    if not np.all(np.isfinite(xi)):
        raise ValueError("xi_m must be finite")

    if isinstance(beam, PlaneWave):
        k = 2.0 * math.pi / wavelength_m
        out = np.exp(1j * k * math.sin(beam.tilt_rad) * xi)
    elif isinstance(beam, GaussianBeam):
        u = (xi - beam.center_m) / beam.waist_m
        with np.errstate(over="ignore"):  # u * u = inf gives exp(-inf) = 0
            out = np.exp(-u * u).astype(complex)
    elif isinstance(beam, BesselBeam):
        field = bessel_j0(beam.radial_wavenumber_per_m * (xi - beam.center_m))
        if not beam.ring_phase_flips:
            field = np.abs(field)
        out = np.asarray(field, dtype=complex)
    else:
        raise TypeError(f"unknown beam profile {type(beam).__name__}")

    if xi.ndim == 0:
        return complex(out)
    return out
