"""Command-line front end: flat ``key = value`` configs in, CSV + JSON out.

Exit codes: 0 success, 1 configuration error, 2 numerical non-convergence,
3 I/O error.  Re-runs are byte-identical at a fixed BLAS thread count.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import json
import math
import re
import shutil
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple, Optional, Sequence

from . import __version__
from .geometry import FeasibilityReport, SlitGeometry, check_feasibility
from .mzi import MziConfig, MziMode, asymmetric_duality, mzi_duality
from .specs import (MAX_BUDGET_NODES, MAX_NODES_PER_INTERVAL,
                    NORMALIZATIONS, PEAK_SINGLE_SLIT, PREDICTABILITY,
                    ConvergenceError, DualityReport, GridSpec, ModelKind,
                    PatternDivergence, QuadratureSpec, _within_budget,
                    duality_report, predictability)

# The names this module takes from the array modules.  _load_arrays binds
# them on the first path that checks or samples a grid, so that importing
# this module, parsing a config and mzi load no numpy.  A tracer wraps
# names on this module (fraunhofer_amplitude and oracle_pattern are bound
# only for it): looking one up loads them all, and the loader keeps a name
# that is bound already.
_ARRAY_NAMES = {
    ".analytic": ("IntensityPattern", "PlateTerms", "sample_pattern"),
    ".beam": ("BeamProfile", "BesselBeam", "GaussianBeam", "PlaneWave",
              "bessel_core_radius"),
    ".metrics": ("ResolutionError", "check_resolution", "pattern_divergence",
                 "visibility_fringe_local", "visibility_global"),
    ".oracle": ("ApertureSet", "DarkPatternError", "_converges_on_zeros",
                "fraunhofer_amplitude", "oracle_pattern", "oracle_patterns",
                "tilt_angles", "two_slit_apertures", "washout_pattern"),
}


@functools.cache
def _load_arrays() -> None:
    """Bind numpy as ``np`` and every name of ``_ARRAY_NAMES`` into this
    module's globals, keeping each one that is bound already."""
    bound = globals()
    bound.setdefault("np", importlib.import_module("numpy"))
    for module, names in _ARRAY_NAMES.items():
        source = importlib.import_module(module, __package__)
        for name in names:
            bound.setdefault(name, getattr(source, name))


def __getattr__(name: str) -> Any:
    if name == "np" or any(name in names for names in _ARRAY_NAMES.values()):
        _load_arrays()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_CONVERGENCE = 2
EXIT_IO = 3

_LENGTH_UNITS = {
    "m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "µm": 1e-6, "nm": 1e-9,
    "pm": 1e-12,
}
_ANGLE_UNITS = {
    "rad": 1.0, "mrad": 1e-3, "urad": 1e-6, "µrad": 1e-6,
    "deg": math.pi / 180.0,
}

_VALUE_RE = re.compile(r"^([-+0-9.eE]+)\s*([a-zA-Zµ]*)$")

# alignment -> (lit slit, (path probability A, path probability B)).  A
# focused beam is centered on its lit slit; cover_both centers it on the
# plate and lights both slits.
_ALIGNMENTS = {
    "cover_both": (None, (0.5, 0.5)),
    "focus_a": ("a", (1.0, 0.0)),
    "focus_b": ("b", (0.0, 1.0)),
}
ALIGNMENTS = tuple(_ALIGNMENTS)
BEAM_KINDS = ("plane", "gaussian", "bessel")
# The key that sets the spatial scale of each beam kind with a finite spot.
_BEAM_SCALE_KEYS = {"gaussian": "waist", "bessel": "radial_wavenumber"}


class ConfigError(ValueError):
    """Bad configuration input; names the offending key and line."""

    def __init__(self, message: str, key: str | None = None,
                 line: int | None = None):
        where = [f"key '{key}'"] if key is not None else []
        where += [f"line {line}"] if line is not None else []
        super().__init__(message + (f" ({', '.join(where)})" if where else ""))
        self.key = key
        self.line = line


def _parse_quantity(text: str, units: dict[str, float], what: str) -> float:
    m = _VALUE_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse {what} value {text!r}")
    number, suffix = m.groups()
    try:
        value = float(number)
    except ValueError:
        raise ValueError(f"cannot parse {what} value {text!r}") from None
    if suffix == "":
        return value
    if suffix not in units:
        known = ", ".join(sorted(units))
        raise ValueError(
            f"unknown {what} unit {suffix!r} in {text!r} (expected {known})")
    return value * units[suffix]


def parse_length(text: str) -> float:
    """Length with optional suffix nm/um/mm/cm/m (bare numbers are meters)."""
    return _parse_quantity(text, _LENGTH_UNITS, "length")


def parse_angle(text: str) -> float:
    """Angle with optional suffix rad/mrad/urad/deg (bare numbers are rad)."""
    return _parse_quantity(text, _ANGLE_UNITS, "angle")


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "on", "yes", "1"):
        return True
    if low in ("false", "off", "no", "0"):
        return False
    raise ValueError(f"cannot parse boolean {text!r}")


def _parse_models(value: str) -> tuple[ModelKind, ...]:
    names = [n.strip() for n in value.split(",") if n.strip()]
    kinds = []
    for name in names:
        try:
            kinds.append(ModelKind(name))
        except ValueError:
            valid = ", ".join(k.value for k in ModelKind)
            raise ValueError(
                f"unknown model {name!r} (expected one of: {valid})")
    return tuple(kinds)


class _Key(NamedTuple):
    """A config key's field, parser and range rule (a test and its wording);
    ``owner`` names the ScenarioConfig field whose object holds the value
    (``geometry``, every key of which is required, or ``quadrature``), None
    for a field of ScenarioConfig itself; ``sweep`` names a --param."""

    field: str
    parse: Callable[[str], Any]
    ok: Callable[[Any], bool] = lambda value: True
    rule: str = ""
    owner: Optional[str] = None
    sweep: Optional[str] = None

    def check(self, key: str, value: Any) -> None:
        """Raise a ConfigError naming ``key`` unless ``value`` keeps the
        rule; an unset optional value (None) keeps every rule."""
        if value is not None and not self.ok(value):
            raise ConfigError(f"{key} must be {self.rule}", key=key)


_POSITIVE = (lambda v: 0.0 < v < math.inf, "finite and > 0")
_NON_NEGATIVE = (lambda v: 0.0 <= v < math.inf, "finite and >= 0")
# An angular spread theta means tilts over [-theta, theta], each within the
# bound of ``tilt``; sin t then rises over them.
_SPREAD = (lambda v: 0.0 <= v < 0.5 * math.pi, "in [0, pi/2)")
# The shared x column of a run's CSVs takes 32 B a point as CSV cells when
# no x needs digits before the point after the first (48 B otherwise):
# 128 MiB, and while it is built on a symmetric window the cells of its
# upper half, 64 MiB more; a mirrored intensity column's half, formatted at
# 48 B a point, takes 96 MiB more.
_MAX_GRID_POINTS = 2 ** 22
# A washout takes one pattern or kernel column per tilt; odd, as counts are.
_MAX_WASHOUT_TILTS = 2 ** 16 + 1


def _one_of(*choices: str) -> tuple[Callable[[Any], bool], str]:
    return (lambda v: v in choices), "one of: " + ", ".join(choices)


# The patterns named after their source rather than a model.
_SOURCES = ("oracle", "washout")
# A run writes <csv_prefix>_<name>.csv per pattern; a file name has <= 255 B.
_PREFIX_BYTES = 255 - max(len(f"_{name}.csv".encode())
                          for name in (*(k.value for k in ModelKind),
                                       *_SOURCES))
# Each config key, declared once; the defaults are those of the fields.
_KEYS = {
    **{key: _Key(f"{key}_m", parse_length, *_POSITIVE, owner="geometry",
                 sweep=p)
       for key, p in (("wavelength", "wavelength"), ("slit_width", "s"),
                      ("slit_separation", "d"), ("screen_distance", "D"))},
    "beam": _Key("beam_kind", str, *_one_of(*BEAM_KINDS)),
    "alignment": _Key("alignment", str, *_one_of(*ALIGNMENTS)),
    "tilt": _Key("tilt_rad", parse_angle, lambda v: abs(v) < 0.5 * math.pi,
                 "in (-pi/2, pi/2)"),
    "waist": _Key("waist_m", parse_length, *_POSITIVE),
    "radial_wavenumber": _Key("radial_wavenumber_per_m", float, *_POSITIVE),
    "ring_phase_flips": _Key("ring_phase_flips", _parse_bool),
    "focusing_angle": _Key("focusing_angle_rad", parse_angle, *_SPREAD,
                           sweep="theta"),
    "spot_width": _Key("spot_width_m", parse_length, *_POSITIVE,
                       sweep="spot_width"),
    "models": _Key("models", _parse_models),
    "alpha": _Key("alpha", float, *_NON_NEGATIVE),
    "beta": _Key("beta", float, *_NON_NEGATIVE),
    "oracle": _Key("oracle_enabled", _parse_bool),
    "oracle_nodes": _Key("nodes_per_interval", int,
                         lambda v: 8 <= v <= MAX_NODES_PER_INTERVAL,
                         f"in [8, {MAX_NODES_PER_INTERVAL}]",
                         owner="quadrature"),
    "oracle_rtol": _Key("relative_tolerance", float, lambda v: 0.0 < v < 1.0,
                        "in (0, 1)", owner="quadrature"),
    "oracle_refinements": _Key("max_refinements", int, lambda v: v >= 1,
                               ">= 1", owner="quadrature"),
    "washout_theta": _Key("washout_theta_rad", parse_angle, *_SPREAD),
    "washout_tilts": _Key("washout_tilts", int,
                          lambda v: 0 < v <= _MAX_WASHOUT_TILTS and v % 2,
                          f"a positive odd count <= {_MAX_WASHOUT_TILTS}"),
    "grid_min": _Key("grid_min_m", parse_length, math.isfinite, "finite"),
    "grid_max": _Key("grid_max_m", parse_length, math.isfinite, "finite"),
    "grid_points": _Key("grid_points", int,
                        lambda v: 2 <= v <= _MAX_GRID_POINTS,
                        f"in [2, {_MAX_GRID_POINTS}]"),
    "normalization": _Key("normalization", str, *_one_of(*NORMALIZATIONS)),
    "csv_prefix": _Key("csv_prefix", str,
                       lambda v: "/" not in v and "\0" not in v
                       and len(v.encode()) <= _PREFIX_BYTES,
                       "free of '/' and NUL characters, and at most "
                       f"{_PREFIX_BYTES} bytes in UTF-8"),
}
# sweep --param name -> its config key.
_SWEEP_KEYS = {spec.sweep: key for key, spec in _KEYS.items() if spec.sweep}
SWEEP_PARAMETERS = tuple(_SWEEP_KEYS)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one simulation run needs, as parsed from a config file."""

    geometry: SlitGeometry
    beam_kind: str = "plane"
    alignment: str = "cover_both"
    tilt_rad: float = 0.0
    waist_m: Optional[float] = None
    radial_wavenumber_per_m: Optional[float] = None
    ring_phase_flips: bool = True
    focusing_angle_rad: float = 0.0
    spot_width_m: Optional[float] = None
    models: tuple[ModelKind, ...] = (ModelKind.STANDARD_TWO_SLIT,)
    alpha: float = 1.0
    beta: float = 1.0
    oracle_enabled: bool = False
    quadrature: QuadratureSpec = QuadratureSpec()
    washout_theta_rad: Optional[float] = None
    washout_tilts: int = 101
    grid_min_m: Optional[float] = None
    grid_max_m: Optional[float] = None
    grid_points: int = 4001
    normalization: str = PEAK_SINGLE_SLIT
    csv_prefix: str = "pattern"

    def __post_init__(self) -> None:
        for key, spec in _KEYS.items():  # parse_config checks the others
            if spec.owner is None:
                spec.check(key, getattr(self, spec.field))
        if (self.grid_min_m is None) != (self.grid_max_m is None):
            raise ConfigError("grid_min and grid_max must be given together",
                              key="grid_max" if self.grid_max_m is None
                              else "grid_min")
        if self.grid_min_m is not None and self.grid_min_m >= self.grid_max_m:
            raise ConfigError("grid_min must be smaller than grid_max",
                              key="grid_min")
        scale = _BEAM_SCALE_KEYS.get(self.beam_kind)
        if scale and getattr(self, _KEYS[scale].field) is None:
            raise ConfigError(f"{self.beam_kind} beam requires '{scale}'",
                              key=scale)
        if self.alignment != "cover_both" and self.beam_kind == "plane":
            raise ConfigError(
                "focused alignments need a beam with a finite spot "
                "(gaussian or bessel)", key="alignment")
        if not self.models and not self.oracle_enabled:
            raise ConfigError("nothing to do: request at least one model or "
                              "the oracle", key="models")
        total = self.alpha + self.beta  # general_two_slit divides by total^2
        if not 0.0 < total * total < math.inf:
            key = "alpha" if self.alpha >= self.beta else "beta"
            raise ConfigError("(alpha + beta)^2 overflows or is 0", key=key)
        geom = self.geometry  # half_fringe_angle is the asin of this ratio
        if 0.5 * geom.wavelength_m / geom.slit_separation_m > 1.0:
            raise ConfigError("wavelength must be <= 2 * slit_separation",
                              key="wavelength")


def _plate(lengths: dict, key: Optional[str] = None) -> SlitGeometry:
    """The plate of lengths that keep their keys' rules, if s < d < D; a
    broken rule names ``key``, or else the key of the length it bounds."""
    if lengths["slit_width_m"] >= lengths["slit_separation_m"]:
        raise ConfigError("slit_width must be smaller than slit_separation",
                          key=key or "slit_width")
    if lengths["screen_distance_m"] <= lengths["slit_separation_m"]:
        raise ConfigError("screen_distance must exceed slit_separation",
                          key=key or "screen_distance")
    return SlitGeometry(**lengths)


def parse_config(text: str) -> ScenarioConfig:
    """Parse a flat ``key = value`` configuration (``#`` starts a comment);
    only the keys present reach ScenarioConfig, which holds the defaults."""
    raw: dict[str, tuple[str, int]] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}",
                              line=line_no)
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key:
            raise ConfigError("empty key", line=line_no)
        if key in raw:
            raise ConfigError("duplicate key", key=key, line=line_no)
        raw[key] = (value, line_no)

    # field -> value, by the object that holds it (see _Key.owner).
    values: dict[Optional[str], dict[str, Any]] = {
        None: {}, "geometry": {}, "quadrature": {}}
    for key, spec in _KEYS.items():
        if key not in raw:
            if spec.owner == "geometry":
                raise ConfigError(f"missing required key '{key}'", key=key)
            continue
        value, line_no = raw.pop(key)
        try:
            value = spec.parse(value)
        except ValueError as exc:
            raise ConfigError(str(exc), key=key, line=line_no) from None
        if spec.owner:  # SlitGeometry and QuadratureSpec name no keys
            spec.check(key, value)
        values[spec.owner][spec.field] = value
    quadrature = {**asdict(QuadratureSpec()), **values["quadrature"]}
    if not _within_budget(quadrature["nodes_per_interval"],
                          quadrature["max_refinements"]):
        raise ConfigError("oracle_refinements must be such that oracle_nodes"
                          f" * 2^oracle_refinements <= {MAX_BUDGET_NODES}",
                          key="oracle_refinements")
    cfg = ScenarioConfig(geometry=_plate(values["geometry"]),
                         quadrature=QuadratureSpec(**quadrature),
                         **values[None])
    if raw:
        key, (_, line_no) = next(iter(raw.items()))
        raise ConfigError("unknown key", key=key, line=line_no)
    return cfg


def beam_center(cfg: ScenarioConfig) -> float:
    lit = _ALIGNMENTS[cfg.alignment][0]
    return getattr(cfg.geometry, f"slit_{lit}_center_m") if lit else 0.0


def build_beam(cfg: ScenarioConfig) -> BeamProfile:
    """Beam profile implied by the configuration (center set by alignment)."""
    _load_arrays()
    if cfg.beam_kind == "plane":
        return PlaneWave(tilt_rad=cfg.tilt_rad)
    if cfg.beam_kind == "gaussian":
        return GaussianBeam(waist_m=cfg.waist_m, center_m=beam_center(cfg))
    return BesselBeam(radial_wavenumber_per_m=cfg.radial_wavenumber_per_m,
                      center_m=beam_center(cfg),
                      ring_phase_flips=cfg.ring_phase_flips)


def build_apertures(cfg: ScenarioConfig) -> ApertureSet:
    """Slit openings; a focused Bessel beam with signed rings carries the
    quarter-period core-to-first-ring offset as an explicit phase on the
    far slit."""
    _load_arrays()
    lit = _ALIGNMENTS[cfg.alignment][0]
    signed_rings = cfg.beam_kind == "bessel" and cfg.ring_phase_flips
    flip = 0.5 * math.pi if signed_rings else 0.0
    return two_slit_apertures(cfg.geometry,
                              phase_a_rad=flip if lit == "b" else 0.0,
                              phase_b_rad=flip if lit == "a" else 0.0)


def derived_spot_width(cfg: ScenarioConfig) -> float:
    """Spot width for the feasibility check: configured value if present,
    else twice the beam's core scale (a plane wave spans the whole plate)."""
    _load_arrays()
    if cfg.spot_width_m is not None:
        return cfg.spot_width_m
    geom = cfg.geometry
    if cfg.beam_kind == "gaussian":
        return 2.0 * cfg.waist_m
    if cfg.beam_kind == "bessel":
        return 2.0 * bessel_core_radius(cfg.radial_wavenumber_per_m)
    return 2.0 * (geom.slit_separation_m + geom.slit_width_m)


def shared_grid(cfg: ScenarioConfig) -> GridSpec:
    """One grid for every pattern in a run: symmetric about 0, wide enough
    for both slit-centered envelopes."""
    if cfg.grid_min_m is not None:
        return GridSpec(cfg.grid_min_m, cfg.grid_max_m, cfg.grid_points)
    geom = cfg.geometry
    half = 0.5 * geom.slit_separation_m \
        + 1.2 * geom.wavelength_m * geom.screen_distance_m / geom.slit_width_m
    return GridSpec(-half, half, cfg.grid_points)


def _overflowing_model(cfg: ScenarioConfig, grid: GridSpec,
                       kinds: Sequence[ModelKind]) -> Optional[ModelKind]:
    """The first of ``kinds`` whose phase overflows on ``grid``, if any.

    A model's phases grow with |x|, so the grid's two ends decide.  None
    exceeds 2 pi (d + s)(|x| + d) / (lambda D); only near overflow are the
    models sampled there."""
    geom = cfg.geometry
    reach = max(-grid.x_min_m, grid.x_max_m) + geom.slit_separation_m
    bound = 2.0 * math.pi * (geom.slit_separation_m + geom.slit_width_m)
    if bound * reach < 1e300 * geom.wavelength_m * geom.screen_distance_m:
        return None
    ends = GridSpec(grid.x_min_m, grid.x_max_m, 2)
    with np.errstate(all="ignore"):
        for kind in kinds:
            try:
                sample_pattern(kind, geom, ends, PEAK_SINGLE_SLIT, cfg.alpha,
                               cfg.beta)
            except ValueError:  # the pattern is not finite
                return kind
    return None


def _tilted_window(cfg: ScenarioConfig, grid: GridSpec, tilt: float
                   ) -> GridSpec:
    """The window a model washout samples its model on for one tilt t: the
    grid shifted by D sin t, as a tilted plane wave shifts its far field."""
    shift = cfg.geometry.screen_distance_m * math.sin(tilt)
    return GridSpec(grid.x_min_m - shift, grid.x_max_m - shift, grid.points)


def _check_washout_windows(cfg: ScenarioConfig, grid: GridSpec) -> None:
    """The two most shifted windows of a model washout, those of its end
    tilts (:func:`_tilted_window`), must be grids on which the first
    model's phase does not overflow."""
    tilts = tilt_angles(cfg.washout_theta_rad, cfg.washout_tilts)
    for tilt in (float(tilts[0]), float(tilts[-1])):
        try:
            window = _tilted_window(cfg, grid, tilt)
            window.check_points()
        except ValueError as exc:
            raise ConfigError(f"{exc} on the screen window of tilt "
                              f"{tilt:.6g} rad; reduce washout_theta",
                              key="washout_theta") from None
        if _overflowing_model(cfg, window, cfg.models[:1]) is not None:
            raise ConfigError(
                f"the phase of {cfg.models[0].value} overflows on the screen "
                f"window of tilt {tilt:.6g} rad; reduce washout_theta",
                key="washout_theta")


def _preflight(cfg: ScenarioConfig, thetas: Sequence[float]
               ) -> tuple[GridSpec, float, FeasibilityReport]:
    """What a run checks before it samples, and all that ``check`` runs:
    the run's grid, whose points must be distinct and resolve the fringe
    period, then the spot width, the models on the grid, the windows a
    model washout shifts the grid to, the oracle's nodes, which the beam
    must light so that the oracle does not converge on zeros over the
    run's spreads ``thetas`` (:func:`~whichway.oracle._converges_on_zeros`),
    and the feasibility report."""
    _load_arrays()
    try:
        grid = shared_grid(cfg)
    except ValueError as exc:  # a window given in the config is valid
        raise ConfigError(f"{exc} for the screen window derived from the "
                          "plate; give grid_min and grid_max",
                          key="grid_min") from None
    try:
        grid.check_points()
    except ValueError as exc:
        raise ConfigError(f"the window has no {grid.points} distinct, evenly "
                          f"spaced floats ({exc}); widen it or lower "
                          "grid_points", key="grid_points") from None
    try:
        check_resolution(grid.spacing_m, cfg.geometry)
    except ResolutionError as exc:
        raise ConfigError(str(exc), key="grid_points") from None
    spot_width = derived_spot_width(cfg)
    if not math.isfinite(spot_width):
        raise ConfigError("the spot width derived from the beam and plate "
                          "is not finite; give spot_width", key="spot_width")
    kind = _overflowing_model(cfg, grid, cfg.models)
    if kind is not None:
        raise ConfigError(f"the phase of {kind.value} overflows on the "
                          "screen window; reduce slit_separation or the "
                          "window", key="slit_separation")
    if cfg.washout_theta_rad is not None and not cfg.oracle_enabled:
        _check_washout_windows(cfg, grid)
    if cfg.oracle_enabled and _converges_on_zeros(
            build_beam(cfg), build_apertures(cfg), cfg.geometry.wavelength_m,
            cfg.quadrature, thetas, cfg.washout_tilts):
        raise _dark_spot(cfg)
    return grid, spot_width, check_feasibility(
        cfg.geometry, cfg.focusing_angle_rad, spot_width)


def _dark_spot(cfg: ScenarioConfig) -> ConfigError:
    """The error of an oracle run whose pattern is dark: the spot is too
    small to light any node, so it names the beam's scale."""
    return ConfigError("oracle pattern is identically zero",
                       key=_BEAM_SCALE_KEYS.get(cfg.beam_kind))


def _spreads(cfg: ScenarioConfig, oracle_theta_rad: float = 0.0
             ) -> list[float]:
    """The spreads a comparison's oracle integrates, the washout's last."""
    washout = cfg.washout_theta_rad
    return [oracle_theta_rad] + ([] if washout is None else [washout])


def path_probabilities(cfg: ScenarioConfig) -> tuple[float, float]:
    return _ALIGNMENTS[cfg.alignment][1]


@dataclass(frozen=True)
class ComparisonReport:
    """Result of :func:`run_scenario`: the JSON summary, its strict JSON
    text (``summary.json`` less its final newline), plus the patterns."""

    summary: dict
    summary_text: str
    patterns: dict[str, IntensityPattern]
    csv_paths: tuple[Path, ...]
    json_path: Optional[Path]


# DualityReport's fields less meta; a pattern entry gives visibility above.
_DUALITY_KEYS = [f.name for f in fields(DualityReport) if f.name != "meta"]
_PATTERN_DUALITY_KEYS = [key for key in _DUALITY_KEYS if key != "visibility"]


def _pattern_entry(name: str, pattern: IntensityPattern, geom: SlitGeometry,
                   p_value: float) -> dict:
    """A pattern's summary entry; ``p_value`` is the run's predictability."""
    v_global = visibility_global(pattern)
    v_fringe = visibility_fringe_local(pattern, geom)
    report = duality_report(PREDICTABILITY, p_value, v_fringe)
    return {
        "source": name if name in _SOURCES else "model",
        "model": name,
        "csv": None,  # run_scenario names the file it writes
        "normalization": pattern.normalization,
        "peak_scale_i0_single": float(pattern.meta.get("unit_scale", 1.0)),
        "visibility_global": v_global,
        "visibility_fringe_local": v_fringe,
        **{key: getattr(report, key) for key in _PATTERN_DUALITY_KEYS},
    }


def _shape_normalized(pattern: IntensityPattern) -> IntensityPattern:
    """Copy of a model pattern at peak 1 in the common unit, as the oracle
    is: a divergence from the oracle, whose scale is arbitrary, compares
    shapes only."""
    scaled = pattern.intensity * float(pattern.meta.get("unit_scale", 1.0))
    return replace(pattern, intensity=scaled / float(np.max(scaled)),
                   normalization=PEAK_SINGLE_SLIT,
                   meta={**pattern.meta, "unit_scale": 1.0})


def _models(cfg: ScenarioConfig, grid: GridSpec
            ) -> dict[str, IntensityPattern]:
    """The configured models on ``grid``, by name; they share each envelope
    and the fringe factor."""
    terms = PlateTerms(cfg.geometry, grid)
    return {kind.value: sample_pattern(kind, cfg.geometry, grid,
                                       cfg.normalization, cfg.alpha, cfg.beta,
                                       terms=terms)
            for kind in cfg.models}


def _oracles(cfg: ScenarioConfig, grid: GridSpec, thetas: Sequence[float]
             ) -> list[IntensityPattern]:
    """The oracle's patterns on ``grid``, one per angular spread of
    ``thetas``, from one :func:`oracle_patterns` call: they share one kernel
    pass per level, and each keeps the bits of its own call."""
    try:
        return oracle_patterns(build_beam(cfg), build_apertures(cfg),
                               cfg.geometry, grid, cfg.quadrature, thetas,
                               cfg.washout_tilts)
    except DarkPatternError:
        # The pre-flight's walk, oracle._converges_on_zeros, ignores the
        # kernel's phases, so it may pass a spot that still goes dark here.
        raise _dark_spot(cfg) from None


def _compare(cfg: ScenarioConfig, oracle_theta_rad: float = 0.0
             ) -> tuple[dict, dict[str, IntensityPattern]]:
    """The comparison ``simulate`` runs: the configured models and oracle on
    one grid, the configured washout, their duality metrics and the
    model-vs-oracle divergences, as the JSON summary plus the patterns.

    The oracle is washed out over ``oracle_theta_rad`` (0 gives the plain
    oracle), as a ``theta`` sweep row's is."""
    geom = cfg.geometry
    thetas = _spreads(cfg, oracle_theta_rad)
    grid, _, feas = _preflight(cfg, thetas)
    patterns = _models(cfg, grid)
    if cfg.oracle_enabled:
        # The oracle and its washout share one kernel pass per level.
        oracles = _oracles(cfg, grid, thetas)
        patterns["oracle"] = oracles[0]
    if cfg.washout_theta_rad is not None:
        if cfg.oracle_enabled:
            patterns["washout"] = oracles[1]
        else:
            # A tilt t shifts the first model's pattern by D sin t
            # (:func:`_tilted_window`); the oracle washes itself out.
            x = grid.x()
            patterns["washout"] = washout_pattern(
                lambda tilt: replace(
                    sample_pattern(cfg.models[0], geom,
                                   _tilted_window(cfg, grid, tilt),
                                   PEAK_SINGLE_SLIT, cfg.alpha, cfg.beta),
                    x_m=x),
                cfg.washout_theta_rad, cfg.washout_tilts)

    # A model listed twice gives two entries, as it gives two divergences.
    names = [kind.value for kind in cfg.models]
    names += [name for name in _SOURCES if name in patterns]
    p_a, p_b = path_probabilities(cfg)
    p_value = predictability(p_a, p_b)
    entries = [_pattern_entry(name, patterns[name], geom, p_value)
               for name in names]

    divergences = []
    if cfg.oracle_enabled:
        # The oracle pattern is at peak 1 already, with unit_scale 1.
        for kind in cfg.models:
            div = pattern_divergence(_shape_normalized(patterns[kind.value]),
                                     patterns["oracle"])
            divergences.append({"model": kind.value, "against": "oracle",
                                **asdict(div)})

    summary = {
        "tool": "whichway",
        "tool_version": __version__,
        "geometry": asdict(geom),
        "alignment": cfg.alignment,
        "path_probability_a": p_a,
        "path_probability_b": p_b,
        "feasibility": {**asdict(feas), "messages": list(feas.messages)},
        "grid": asdict(grid),
        "patterns": entries,
        "divergences": divergences,
        "washout": (
            {"theta_rad": cfg.washout_theta_rad, "n_tilts": cfg.washout_tilts}
            if cfg.washout_theta_rad is not None else None),
    }
    return summary, patterns


def run_scenario(cfg: ScenarioConfig,
                 out_dir: Optional[Path] = None) -> ComparisonReport:
    """Evaluate the configured models (and oracle, and washout) on one grid,
    compute duality metrics and divergences, and optionally write CSV/JSON.

    The summary is encoded once, as strict JSON: ``summary.json`` holds
    that text and ``simulate`` prints it.  Partial outputs are removed if
    anything fails mid-run.  Every pattern is sampled on the pre-flight
    grid, so the x column is formatted once, as CSV cells every file
    shares, and so is each distinct intensity column: a pattern whose
    intensity has the bits of one written before (``single_slit_a`` and
    ``standard_focused_a`` are one formula) gets a copy of that file.
    """
    summary, patterns = _compare(cfg)
    if out_dir is not None:
        for entry in summary["patterns"]:
            entry["csv"] = f"{cfg.csv_prefix}_{entry['model']}.csv"
    text = _json_text(summary)
    written: list[Path] = []
    json_path: Optional[Path] = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            from ._floattext import column_cells
            x_cells = list(column_cells(next(iter(patterns.values())).x_m,
                                        ","))
            # Each distinct intensity column and the file it was written to.
            formatted: list[tuple[np.ndarray, Path]] = []
            for entry in summary["patterns"]:
                path = out_dir / entry["csv"]
                pattern = patterns[entry["model"]]
                column = pattern.intensity
                written.append(path)
                # Bit for bit, as unit_integral copies of one formula are
                # distinct arrays; the last values screen out most columns.
                source = next((
                    earlier_path for earlier, earlier_path in formatted
                    if earlier[-1] == column[-1] and np.array_equal(
                        earlier.view(np.uint64), column.view(np.uint64))),
                    None)
                if source is None:
                    write_pattern_csv(pattern, path, x_cells=x_cells)
                    formatted.append((column, path))
                elif source != path:  # a model listed twice has one file
                    shutil.copyfile(source, path)
            json_path = out_dir / "summary.json"
            written.append(json_path)
            write_summary_json(text, json_path)
        except BaseException:
            for path in written:  # a failed removal must not hide the cause
                with contextlib.suppress(OSError):
                    path.unlink()
            raise

    # written ends with summary.json; csv_paths lists the CSVs only.
    return ComparisonReport(summary=summary, summary_text=text,
                            patterns=patterns, csv_paths=tuple(written[:-1]),
                            json_path=json_path)


def write_pattern_csv(pattern: IntensityPattern, path: Path, *,
                      x_cells: Optional[Sequence[np.ndarray]] = None
                      ) -> None:
    """Two-column CSV ``x_m,intensity``; each float is the bytes of Python's
    ``format(v, ".17g")`` (lossless float round-trip).  Rows are formatted
    and written in blocks of ``BLOCK_ROWS``.  ``x_cells`` is
    ``list(column_cells(pattern.x_m, ","))``, when the caller has it
    already.

    Each column is formatted by :func:`~whichway._floattext.column_cells`,
    so one that mirrors itself bit for bit (the x of a symmetric window, an
    even model on it, a folded oracle or washout pattern) is formatted
    from its upper half, whose cells are held for the whole write."""
    # Imported here, so that only runs that write CSV compile the module.
    from ._floattext import BLOCK_ROWS, column_cells, csv_rows
    _load_arrays()
    x = pattern.x_m
    if x_cells is None:
        x_cells = column_cells(x, ",")
    elif [len(block) for block in x_cells] \
            != [min(BLOCK_ROWS, x.size - start)
                for start in range(0, x.size, BLOCK_ROWS)]:
        raise ValueError("x_cells needs one block of cells per block of "
                         "x values")
    with open(path, "wb") as out:
        out.write(b"x_m,intensity\n")
        for x_block, i_block in zip(x_cells,
                                    column_cells(pattern.intensity, "\n")):
            out.write(csv_rows(x_block, i_block))


def _json_text(value: Any) -> str:
    """Strict JSON: a NaN or infinity raises ValueError instead of being
    written as a token that JSON parsers reject."""
    return json.dumps(value, indent=2, allow_nan=False)


def write_summary_json(text: str, path: Path) -> None:
    """Write a summary's JSON text, as :func:`run_scenario` encodes it."""
    Path(path).write_text(text + "\n", encoding="ascii")


# The columns of a sweep row, in order.
_SWEEP_COLUMNS = ("parameter", "value", "half_fringe_angle_rad",
                  "collimation_ok", "spot_fits_slit", "fraunhofer_ok",
                  "visibility_model", "visibility_oracle",
                  "divergence_sup_relative")


def _spread_batches(thetas: Sequence[float], n_tilts: int
                    ) -> Iterator[list[float]]:
    """``thetas`` in order, in batches for one :func:`oracle_patterns` call
    each.  A spread takes at most one mode column per tilt of
    :func:`tilt_angles`, and a batch takes spreads while their columns stay
    within two washouts and the plain pattern, so a sweep's oracle memory
    does not grow with its count of values."""
    batch: list[float] = []
    columns = 0
    for theta in thetas:
        width = tilt_angles(theta, n_tilts).size
        if batch and columns + width > 2 * n_tilts + 1:
            yield batch
            batch, columns = [], 0
        batch.append(theta)
        columns += width
    if batch:
        yield batch


def sweep_scenario(cfg: ScenarioConfig, parameter: str,
                   values: Sequence[float]) -> list[dict]:
    """One row per swept value, read off the ``simulate`` comparison of the
    first configured model, peak-normalized and unwashed, with the oracle:
    feasibility flags, model/oracle visibilities and their sup divergence.

    Sweeping ``theta`` treats the value as the illumination angular spread:
    it enters the collimation check and washes out the oracle pattern.

    Every value is checked before any sampling.  A ``theta`` or
    ``spot_width`` value reaches only the feasibility report and, for
    ``theta``, the oracle's spread, so such a sweep runs one pre-flight and
    one model sample, and its distinct spreads share :func:`oracle_patterns`
    calls (:func:`_spread_batches`); each row is the one a comparison of
    its value alone would give.  A plate length gives each value its own
    comparison.
    """
    if parameter not in _SWEEP_KEYS:
        valid = ", ".join(SWEEP_PARAMETERS)
        raise ConfigError(
            f"unknown sweep parameter {parameter!r} (expected one of: {valid})")

    spec = _KEYS[_SWEEP_KEYS[parameter]]
    base = replace(cfg, models=cfg.models[:1], normalization=PEAK_SINGLE_SLIT,
                   washout_theta_rad=None)
    subs = []
    for value in values:
        changed = {spec.field: value}
        if spec.owner == "geometry":  # the plate's rules, as parse_config's
            spec.check(parameter, value)
            changed = {"geometry": _plate(
                {**asdict(base.geometry), **changed}, parameter)}
        subs.append(replace(base, **changed))
    # (value, config, oracle spread) per row.  A plate length changes every
    # pattern, so each of its values has a comparison of its own; theta and
    # spot_width values share one.
    swept = [(value, sub, value if parameter == "theta" else 0.0)
             for value, sub in zip(values, subs)]
    if spec.owner == "geometry":
        groups = [[row] for row in swept]
    else:
        groups = [swept] if swept else []
    rows = []
    for group in groups:
        first = group[0][1]
        geom = first.geometry
        spreads = list(dict.fromkeys(theta for _, _, theta in group))
        grid, _, _ = _preflight(first, spreads)
        model = next(iter(_models(first, grid).values()), None)
        shape = visibility_model = None
        if model is not None:
            shape = _shape_normalized(model)
            visibility_model = visibility_fringe_local(model, geom)
        # The oracle's visibility and divergence per distinct spread; each
        # batch's patterns are dropped once read.
        oracle_cells: dict[float, tuple] = {}
        if first.oracle_enabled:
            for batch in _spread_batches(spreads, first.washout_tilts):
                for theta, oracle in zip(batch, _oracles(first, grid, batch)):
                    oracle_cells[theta] = (
                        visibility_fringe_local(oracle, geom),
                        None if shape is None
                        else pattern_divergence(shape, oracle).sup_relative)
        for value, sub, theta in group:
            feas = check_feasibility(geom, sub.focusing_angle_rad,
                                     derived_spot_width(sub))
            visibility_oracle, divergence = oracle_cells.get(theta,
                                                             (None, None))
            cells = {"parameter": parameter, "value": value,
                     **asdict(feas),  # read by their column names
                     "visibility_model": visibility_model,
                     "visibility_oracle": visibility_oracle,
                     "divergence_sup_relative": divergence}
            rows.append({col: cells[col] for col in _SWEEP_COLUMNS})
    return rows


def format_sweep_csv(rows: list[dict]) -> str:
    out = [",".join(_SWEEP_COLUMNS)]
    for row in rows:
        cells = []
        for col in _SWEEP_COLUMNS:
            value = row[col]
            if value is None:
                cells.append("")
            elif isinstance(value, bool):
                cells.append("true" if value else "false")
            elif isinstance(value, float):
                cells.append(f"{value:.17g}")
            else:
                cells.append(str(value))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def _object(required: Sequence[str], **rest: Any) -> dict:
    """The JSON schema of an object that has the keys ``required``."""
    return {"type": "object", "required": list(required), **rest}


def _field_names(cls: type) -> list[str]:
    return [f.name for f in fields(cls)]


_FRACTION = {"type": "number", "minimum": 0, "maximum": 1}
# JSON summary schema (the README names it).
SUMMARY_SCHEMA = _object(
    ["tool", "tool_version", "geometry", "alignment", "path_probability_a",
     "path_probability_b", "feasibility", "grid", "patterns", "divergences",
     "washout"],
    properties={
        "tool": {"const": "whichway"},
        "tool_version": {"type": "string"},
        "geometry": _object(_field_names(SlitGeometry),
                            additionalProperties={"type": "number"}),
        "alignment": {"enum": list(ALIGNMENTS)},
        "path_probability_a": _FRACTION,
        "path_probability_b": _FRACTION,
        "feasibility": _object(_field_names(FeasibilityReport)),
        "grid": _object(_field_names(GridSpec)),
        "patterns": {"type": "array", "items": _object(
            ["source", "model", "normalization", "peak_scale_i0_single",
             "visibility_global", "visibility_fringe_local",
             *_PATTERN_DUALITY_KEYS],
            properties={
                "source": {"enum": ["model", *_SOURCES]},
                "visibility_global": _FRACTION,
                "visibility_fringe_local": _FRACTION,
                "which_way_value": _FRACTION,
                "duality_sum": {"type": "number", "minimum": 0, "maximum": 2},
                "inequality_satisfied": {"type": "boolean"},
            })},
        "divergences": {"type": "array", "items": _object(
            ["model", "against", *_field_names(PatternDivergence)])},
        "washout": {"oneOf": [{"type": "null"},
                              _object(["theta_rad", "n_tilts"])]},
    })


def _read_config(args: argparse.Namespace) -> ScenarioConfig:
    """Parse the ``--config`` file; a UTF-8 byte order mark is dropped."""
    return parse_config(Path(args.config).read_text(encoding="utf-8-sig"))


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _read_config(args)
    out_dir = Path(args.out_dir) if args.out_dir else None
    print(run_scenario(cfg, out_dir=out_dir).summary_text)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _read_config(args)
    parse_value = _KEYS[_SWEEP_KEYS[args.parameter]].parse
    try:
        values = [parse_value(chunk.strip())
                  for chunk in args.values.split(",") if chunk.strip()]
    except ValueError as exc:
        raise ConfigError(str(exc), key="--values") from None
    rows = sweep_scenario(cfg, args.parameter, values)
    text = format_sweep_csv(rows)
    if args.out:
        Path(args.out).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    cfg = _read_config(args)
    _, spot_width, feas = _preflight(cfg, _spreads(cfg))
    print(_json_text({
        "half_fringe_angle_rad": feas.half_fringe_angle_rad,
        "focusing_angle_rad": feas.focusing_angle_rad,
        "spot_width_m": spot_width,
        "collimation_ok": feas.collimation_ok,
        "spot_fits_slit": feas.spot_fits_slit,
        "fraunhofer_ok": feas.fraunhofer_ok,
        "all_ok": feas.all_ok,
        "messages": list(feas.messages),
    }))
    return EXIT_OK


def _cmd_mzi(args: argparse.Namespace) -> int:
    for key, value in (("--a", args.a), ("--b", args.b)):
        if not 0.0 <= value < math.inf:
            raise ConfigError("amplitudes must be finite and >= 0", key=key)
    try:
        if args.mode == "asymmetric":
            report = asymmetric_duality(args.a, args.b)
        else:
            report = mzi_duality(MziConfig(args.a, args.b,
                                           mode=MziMode(args.mode)))
    except ValueError as exc:
        # What is left involves --a: a^2 + b^2 in (0, 1], or the veto
        # modes' a > 0.  A joint rule names the first key, as alpha and
        # beta do.
        raise ConfigError(str(exc), key="--a") from None
    print(_json_text({
        "mode": args.mode,
        "amplitude_a": args.a,
        "amplitude_b": args.b,
        **{key: getattr(report, key) for key in _DUALITY_KEYS},
        "detected_fraction": report.meta["detected_fraction"],
    }))
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then reused: once per
    process, and not at import.  Parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="whichway",
        description="Two-slit which-way duality simulator")
    parser.add_argument("--version", action="version",
                        version=f"whichway {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate",
                           help="run a scenario; write CSV patterns and a "
                                "JSON summary")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out-dir", default=None,
                       help="directory for CSV/JSON outputs (omit to print "
                            "the summary only)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter, emit a CSV "
                                           "table")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", dest="parameter", required=True,
                         choices=SWEEP_PARAMETERS)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values, unit suffixes allowed")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_check = sub.add_parser("check", help="feasibility checks only")
    p_check.add_argument("--config", required=True)
    p_check.set_defaults(func=_cmd_check)

    p_mzi = sub.add_parser("mzi", help="two-path interferometer duality "
                                       "report")
    p_mzi.add_argument("--mode", required=True,
                       choices=[m.value for m in MziMode] + ["asymmetric"])
    p_mzi.add_argument("--a", type=float, default=math.sqrt(0.5))
    p_mzi.add_argument("--b", type=float, default=math.sqrt(0.5))
    p_mzi.set_defaults(func=_cmd_mzi)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("refinement history (nodes/interval: max |diff| / scale):",
              file=sys.stderr)
        for nodes, disagreement in exc.history:
            print(f"  {nodes}: {disagreement:.3e}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ValueError as exc:
        # ConfigError and every domain validation error land here.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
