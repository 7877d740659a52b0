"""Slit-plate geometry: derived angles, screen landmarks, feasibility checks.

Angle conventions: all derived angles are returned exactly via arcsine /
arctangent, never by their small-angle shortcuts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SlitGeometry:
    """Two-slit plate and detection screen layout.  All lengths in meters.

    Attributes
    ----------
    wavelength_m : float
        Illumination wavelength.
    slit_width_m : float
        Width s of each slit.
    slit_separation_m : float
        Center-to-center slit distance d.
    screen_distance_m : float
        Plate-to-screen distance D.
    """

    wavelength_m: float
    slit_width_m: float
    slit_separation_m: float
    screen_distance_m: float

    def __post_init__(self) -> None:
        for name in ("wavelength_m", "slit_width_m", "slit_separation_m",
                     "screen_distance_m"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
            if value <= 0.0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if self.slit_width_m >= self.slit_separation_m:
            raise ValueError(
                "slit_width_m must be smaller than slit_separation_m "
                f"({self.slit_width_m} >= {self.slit_separation_m})")
        if self.screen_distance_m <= self.slit_separation_m:
            raise ValueError("screen_distance_m must exceed slit_separation_m")

    @property
    def slit_a_center_m(self) -> float:
        """Center of slit A; the plate is centered on the origin."""
        return -0.5 * self.slit_separation_m

    @property
    def slit_b_center_m(self) -> float:
        return +0.5 * self.slit_separation_m


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the collimation / spot-size / far-field checks."""

    half_fringe_angle_rad: float
    focusing_angle_rad: float
    collimation_ok: bool
    spot_fits_slit: bool
    fraunhofer_ok: bool
    messages: tuple[str, ...]

    @property
    def all_ok(self) -> bool:
        return self.collimation_ok and self.spot_fits_slit and self.fraunhofer_ok


def half_fringe_angle(geom: SlitGeometry) -> float:
    """Angular half-period of the two-slit fringes, asin(lambda / (2 d)).

    Raises ValueError when lambda > 2 d (no fringe system exists).  The
    ratio is taken as 0.5 lambda / d, which rounds as lambda / (2 d) does
    but stays finite where 2 d overflows.
    """
    ratio = 0.5 * geom.wavelength_m / geom.slit_separation_m
    if ratio > 1.0:
        raise ValueError(
            f"wavelength / (2 * separation) = {ratio:.6g} exceeds 1; "
            "no fringe half-period exists")
    return math.asin(ratio)


def fringe_period(geom: SlitGeometry) -> float:
    """Fringe spacing on the screen, lambda * D / d."""
    return geom.wavelength_m * geom.screen_distance_m / geom.slit_separation_m


def check_feasibility(geom: SlitGeometry, focusing_angle_rad: float,
                      spot_width_m: float) -> FeasibilityReport:
    """Check the preconditions for a clean focused-beam run.

    collimation_ok  : beam angular spread <= one tenth of the fringe half-angle
    spot_fits_slit  : focal spot no wider than the slit separation
    fraunhofer_ok   : screen in the far field, D >= 10 (d + s)^2 / lambda

    Diagnostic only: constraint failures populate flags and messages, they
    never raise.
    """
    if focusing_angle_rad < 0.0:
        raise ValueError("focusing_angle_rad must be >= 0")
    if spot_width_m <= 0.0:
        raise ValueError("spot_width_m must be positive")

    phi = half_fringe_angle(geom)
    collimation_ok = focusing_angle_rad <= phi / 10.0
    spot_fits = spot_width_m <= geom.slit_separation_m
    # Not ** 2: a float power raises OverflowError where a product is inf.
    aperture = geom.slit_separation_m + geom.slit_width_m
    far_field_min = 10.0 * (aperture * aperture) / geom.wavelength_m
    fraunhofer_ok = geom.screen_distance_m >= far_field_min

    messages = []
    if not collimation_ok:
        messages.append(
            f"beam spread {focusing_angle_rad:.4g} rad exceeds phi/10 = "
            f"{phi / 10.0:.4g} rad; fringes will wash out")
    if not spot_fits:
        messages.append(
            f"spot width {spot_width_m:.4g} m exceeds slit separation "
            f"{geom.slit_separation_m:.4g} m; both slits are illuminated")
    if not fraunhofer_ok:
        messages.append(
            f"screen distance {geom.screen_distance_m:.4g} m is below the "
            f"far-field threshold {far_field_min:.4g} m")
    return FeasibilityReport(
        half_fringe_angle_rad=phi,
        focusing_angle_rad=focusing_angle_rad,
        collimation_ok=collimation_ok,
        spot_fits_slit=spot_fits,
        fraunhofer_ok=fraunhofer_ok,
        messages=tuple(messages),
    )
