"""Two-slit which-way duality simulator.

Computes, side by side, a particle-plus-pilot-wave model of a focused-beam
two-slit experiment and the standard Fraunhofer wave-optics result, then
quantifies fringe visibility, which-way predictability, and the duality sum
P**2 + V**2 for both.

Each export is imported from its module on first use (PEP 562), so
``import whichway`` loads no numpy.
"""

import importlib

__version__ = "0.1.0"

# Each module and the names it exports, in the order of __all__.
_EXPORTS = {
    "geometry": (
        "SlitGeometry", "FeasibilityReport", "check_feasibility",
        "fringe_period", "half_fringe_angle"),
    "beam": (
        "BESSEL_J0_FIRST_ZERO", "BeamProfile", "PlaneWave", "GaussianBeam",
        "BesselBeam", "amplitude_at", "bessel_j0", "bessel_core_radius",
        "bessel_tilt_shift_angle", "rayleigh_range", "skew_angle"),
    "specs": (
        "PEAK_SINGLE_SLIT", "UNIT_INTEGRAL", "GridSpec", "ModelKind",
        "QuadratureSpec", "ConvergenceError", "PREDICTABILITY",
        "DISTINGUISHABILITY", "DualityReport", "PatternDivergence",
        "duality_report", "predictability"),
    "analytic": (
        "IntensityPattern", "PlateTerms", "default_grid", "sample_pattern",
        "single_slit_intensity", "fringe_factor",
        "general_two_slit_intensity", "empty_wave_a", "empty_wave_b",
        "empty_wave_sum", "standard_two_slit", "standard_focused_a",
        "pure_fringe"),
    "oracle": (
        "ApertureSet", "ColumnGroup", "fraunhofer_amplitude", "oracle_pattern",
        "oracle_patterns", "single_slit_aperture", "two_slit_apertures",
        "washout_pattern"),
    "metrics": (
        "ResolutionError", "fringe_carrier_phase", "pattern_divergence",
        "visibility_fringe_local", "visibility_global"),
    "mzi": (
        "MziConfig", "MziMode", "asymmetric_duality", "mzi_duality",
        "output_intensity"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups find it without this call
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
