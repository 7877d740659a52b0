"""Two-slit which-way duality simulator.

Computes, side by side, a particle-plus-pilot-wave model of a focused-beam
two-slit experiment and the standard Fraunhofer wave-optics result, then
quantifies fringe visibility, which-way predictability, and the duality sum
P**2 + V**2 for both.
"""

__version__ = "0.1.0"

from .geometry import (FeasibilityReport, SlitGeometry, check_feasibility,
                       fringe_period, half_fringe_angle)
from .beam import (BESSEL_J0_FIRST_ZERO, BesselBeam, BeamProfile,
                   GaussianBeam, PlaneWave, amplitude_at, bessel_core_radius,
                   bessel_j0, bessel_tilt_shift_angle, rayleigh_range,
                   skew_angle)
from .analytic import (PEAK_SINGLE_SLIT, UNIT_INTEGRAL, GridSpec,
                       IntensityPattern, ModelKind, default_grid,
                       empty_wave_a, empty_wave_b, empty_wave_sum,
                       fringe_factor, general_two_slit_intensity,
                       pure_fringe, sample_pattern, single_slit_intensity,
                       standard_focused_a, standard_two_slit)
from .oracle import (ApertureSet, ConvergenceError, QuadratureSpec,
                     fraunhofer_amplitude, oracle_pattern, oracle_patterns,
                     single_slit_aperture, two_slit_apertures,
                     washout_pattern)
from .metrics import (DISTINGUISHABILITY, PREDICTABILITY, DualityReport,
                      PatternDivergence, ResolutionError, duality_report,
                      fringe_carrier_phase, pattern_divergence,
                      predictability, visibility_fringe_local,
                      visibility_global)
from .mzi import (MziConfig, MziMode, asymmetric_duality, mzi_duality,
                  output_intensity)

__all__ = [
    "__version__",
    # geometry
    "SlitGeometry", "FeasibilityReport", "check_feasibility",
    "fringe_period", "half_fringe_angle",
    # beam
    "BESSEL_J0_FIRST_ZERO", "BeamProfile", "PlaneWave", "GaussianBeam",
    "BesselBeam", "amplitude_at", "bessel_j0", "bessel_core_radius",
    "bessel_tilt_shift_angle", "rayleigh_range", "skew_angle",
    # analytic
    "PEAK_SINGLE_SLIT", "UNIT_INTEGRAL", "GridSpec", "IntensityPattern",
    "ModelKind", "default_grid", "sample_pattern", "single_slit_intensity",
    "fringe_factor", "general_two_slit_intensity", "empty_wave_a",
    "empty_wave_b", "empty_wave_sum", "standard_two_slit",
    "standard_focused_a", "pure_fringe",
    # oracle
    "ApertureSet", "QuadratureSpec", "ConvergenceError",
    "fraunhofer_amplitude", "oracle_pattern", "oracle_patterns",
    "single_slit_aperture",
    "two_slit_apertures", "washout_pattern",
    # metrics
    "PREDICTABILITY", "DISTINGUISHABILITY", "DualityReport",
    "PatternDivergence", "ResolutionError", "duality_report",
    "fringe_carrier_phase", "pattern_divergence", "predictability",
    "visibility_fringe_local", "visibility_global",
    # mzi
    "MziConfig", "MziMode", "asymmetric_duality", "mzi_duality",
    "output_intensity",
]
