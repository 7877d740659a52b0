"""Command-line front end: flat ``key = value`` configs in, CSV + JSON out.

Exit codes: 0 success, 1 configuration error, 2 numerical non-convergence,
3 I/O error.  Identical configurations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .analytic import (PEAK_SINGLE_SLIT, UNIT_INTEGRAL, GridSpec,
                       IntensityPattern, ModelKind, sample_pattern)
from .beam import (BesselBeam, BeamProfile, GaussianBeam, PlaneWave,
                   bessel_core_radius)
from .geometry import SlitGeometry, check_feasibility
from .metrics import (PREDICTABILITY, duality_report, pattern_divergence,
                      predictability, visibility_fringe_local,
                      visibility_global)
from .mzi import MziConfig, MziMode, asymmetric_duality, mzi_duality
# fraunhofer_amplitude is not called here but stays bound: perfbench/spans.py
# wraps the oracle names this module binds.
from .oracle import (ApertureSet, ConvergenceError, QuadratureSpec,
                     fraunhofer_amplitude, oracle_pattern, two_slit_apertures,
                     washout_pattern)

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

ALIGNMENTS = ("cover_both", "focus_a", "focus_b")
BEAM_KINDS = ("plane", "gaussian", "bessel")

SWEEP_PARAMETERS = ("theta", "spot_width", "d", "s", "D", "wavelength")

# CLI-facing mode names (the enum values are more explicit).
_MZI_MODE_NAMES = {
    "open": MziMode.OPEN,
    "blocked": MziMode.BLOCKED_B,
    "marker": MziMode.MARKER,
    "knockout": MziMode.KNOCKOUT_B,
}


class ConfigError(ValueError):
    """Bad configuration input; names the offending key and line."""

    def __init__(self, message: str, key: str | None = None,
                 line: int | None = None):
        where = ""
        if key is not None:
            where += f" (key '{key}'"
            where += f", line {line})" if line is not None else ")"
        elif line is not None:
            where += f" (line {line})"
        super().__init__(message + where)
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
    grid: Optional[GridSpec] = None
    grid_points: int = 4001
    normalization: str = PEAK_SINGLE_SLIT
    csv_prefix: str = "pattern"

    def __post_init__(self) -> None:
        if self.beam_kind not in BEAM_KINDS:
            raise ConfigError(f"unknown beam kind {self.beam_kind!r}",
                              key="beam")
        if self.alignment not in ALIGNMENTS:
            raise ConfigError(f"unknown alignment {self.alignment!r}",
                              key="alignment")
        if self.beam_kind == "gaussian" and self.waist_m is None:
            raise ConfigError("gaussian beam requires 'waist'", key="waist")
        if self.beam_kind == "bessel" and self.radial_wavenumber_per_m is None:
            raise ConfigError("bessel beam requires 'radial_wavenumber'",
                              key="radial_wavenumber")
        if self.alignment != "cover_both" and self.beam_kind == "plane":
            raise ConfigError(
                "focused alignments need a beam with a finite spot "
                "(gaussian or bessel)", key="alignment")
        if not self.models and not self.oracle_enabled:
            raise ConfigError(
                "nothing to do: request at least one model or the oracle",
                key="models")
        if self.normalization not in (PEAK_SINGLE_SLIT, UNIT_INTEGRAL):
            raise ConfigError(
                f"unknown normalization {self.normalization!r}",
                key="normalization")
        if self.washout_tilts < 1 or self.washout_tilts % 2 == 0:
            raise ConfigError("washout_tilts must be a positive odd count",
                              key="washout_tilts")
        if self.grid_points < 2:
            raise ConfigError("grid_points must be >= 2", key="grid_points")


def parse_config(text: str) -> ScenarioConfig:
    """Parse a flat ``key = value`` configuration (``#`` starts a comment)."""
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

    def take(key: str, parser: Callable[[str], object], default=None,
             required: bool = False):
        if key not in raw:
            if required:
                raise ConfigError(f"missing required key '{key}'", key=key)
            return default
        value, line_no = raw.pop(key)
        try:
            return parser(value)
        except ValueError as exc:
            raise ConfigError(str(exc), key=key, line=line_no) from None

    def parse_models(value: str) -> tuple[ModelKind, ...]:
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

    wavelength = take("wavelength", parse_length, required=True)
    slit_width = take("slit_width", parse_length, required=True)
    slit_separation = take("slit_separation", parse_length, required=True)
    screen_distance = take("screen_distance", parse_length, required=True)
    try:
        geometry = SlitGeometry(wavelength, slit_width, slit_separation,
                                screen_distance)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    grid_points = take("grid_points", int, default=4001)
    grid_min = take("grid_min", parse_length)
    grid_max = take("grid_max", parse_length)
    grid = None
    if (grid_min is None) != (grid_max is None):
        raise ConfigError("grid_min and grid_max must be given together",
                          key="grid_min" if grid_min is None else "grid_max")
    if grid_min is not None:
        try:
            grid = GridSpec(grid_min, grid_max, grid_points)
        except ValueError as exc:
            raise ConfigError(str(exc), key="grid_min") from None

    try:
        quadrature = QuadratureSpec(
            nodes_per_interval=take("oracle_nodes", int, default=32),
            relative_tolerance=take("oracle_rtol", float, default=1e-12),
            max_refinements=take("oracle_refinements", int, default=6),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), key="oracle_nodes") from None

    cfg = ScenarioConfig(
        geometry=geometry,
        beam_kind=take("beam", str, default="plane"),
        alignment=take("alignment", str, default="cover_both"),
        tilt_rad=take("tilt", parse_angle, default=0.0),
        waist_m=take("waist", parse_length),
        radial_wavenumber_per_m=take("radial_wavenumber", float),
        ring_phase_flips=take("ring_phase_flips", _parse_bool, default=True),
        focusing_angle_rad=take("focusing_angle", parse_angle, default=0.0),
        spot_width_m=take("spot_width", parse_length),
        models=take("models", parse_models,
                    default=(ModelKind.STANDARD_TWO_SLIT,)),
        alpha=take("alpha", float, default=1.0),
        beta=take("beta", float, default=1.0),
        oracle_enabled=take("oracle", _parse_bool, default=False),
        quadrature=quadrature,
        washout_theta_rad=take("washout_theta", parse_angle),
        washout_tilts=take("washout_tilts", int, default=101),
        grid=grid,
        grid_points=grid_points,
        normalization=take("normalization", str, default=PEAK_SINGLE_SLIT),
        csv_prefix=take("csv_prefix", str, default="pattern"),
    )
    if raw:
        key, (_, line_no) = next(iter(raw.items()))
        raise ConfigError("unknown key", key=key, line=line_no)
    return cfg


def beam_center(cfg: ScenarioConfig) -> float:
    if cfg.alignment == "focus_a":
        return cfg.geometry.slit_a_center_m
    if cfg.alignment == "focus_b":
        return cfg.geometry.slit_b_center_m
    return 0.0


def build_beam(cfg: ScenarioConfig) -> BeamProfile:
    """Beam profile implied by the configuration (center set by alignment)."""
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
    phase_a = phase_b = 0.0
    if cfg.beam_kind == "bessel" and cfg.ring_phase_flips:
        if cfg.alignment == "focus_a":
            phase_b = 0.5 * math.pi
        elif cfg.alignment == "focus_b":
            phase_a = 0.5 * math.pi
    return two_slit_apertures(cfg.geometry, phase_a_rad=phase_a,
                              phase_b_rad=phase_b)


def derived_spot_width(cfg: ScenarioConfig) -> float:
    """Spot width for the feasibility check: configured value if present,
    else twice the beam's core scale (a plane wave spans the whole plate)."""
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
    if cfg.grid is not None:
        return cfg.grid
    geom = cfg.geometry
    half = 0.5 * geom.slit_separation_m \
        + 1.2 * geom.wavelength_m * geom.screen_distance_m / geom.slit_width_m
    return GridSpec(-half, half, cfg.grid_points)


def path_probabilities(cfg: ScenarioConfig) -> tuple[float, float]:
    if cfg.alignment == "focus_a":
        return 1.0, 0.0
    if cfg.alignment == "focus_b":
        return 0.0, 1.0
    return 0.5, 0.5


@dataclass(frozen=True)
class ComparisonReport:
    """Result of :func:`run_scenario`: the JSON summary plus the patterns."""

    summary: dict
    patterns: dict[str, IntensityPattern]
    csv_paths: tuple[Path, ...]
    json_path: Optional[Path]


def _pattern_entry(name: str, source: str, pattern: IntensityPattern,
                   cfg: ScenarioConfig, csv_name: Optional[str]) -> dict:
    geom = cfg.geometry
    p_a, p_b = path_probabilities(cfg)
    p_value = predictability(p_a, p_b)
    v_global = visibility_global(pattern)
    v_fringe = visibility_fringe_local(pattern, geom)
    report = duality_report(PREDICTABILITY, p_value, v_fringe)
    return {
        "source": source,
        "model": name,
        "csv": csv_name,
        "normalization": pattern.normalization,
        "peak_scale_i0_single": float(pattern.meta.get("unit_scale", 1.0)),
        "visibility_global": v_global,
        "visibility_fringe_local": v_fringe,
        "which_way_kind": report.which_way_kind,
        "which_way_value": report.which_way_value,
        "duality_sum": report.duality_sum,
        "inequality_satisfied": report.inequality_satisfied,
    }


def _shape_normalized(pattern: IntensityPattern) -> IntensityPattern:
    """Copy of a pattern rescaled so its peak is 1 in the common unit.

    Used for model-versus-oracle comparisons where the oracle's absolute
    scale is arbitrary; only shapes are compared.
    """
    scaled = pattern.intensity * float(pattern.meta.get("unit_scale", 1.0))
    peak = float(np.max(scaled))
    meta = dict(pattern.meta)
    meta["unit_scale"] = 1.0
    return IntensityPattern(x_m=pattern.x_m, intensity=scaled / peak,
                            normalization=PEAK_SINGLE_SLIT, meta=meta)


def _washout_base(cfg: ScenarioConfig, grid: GridSpec
                  ) -> Callable[[float], IntensityPattern]:
    """Tilt -> pattern generator for the first configured model; a tilt t
    shifts the pattern by D * sin(t), as it does a tilted plane wave's far
    field.  The oracle washes itself out (:func:`oracle_pattern`)."""
    geom = cfg.geometry
    x = grid.x()
    kind = cfg.models[0]

    def gen(tilt: float) -> IntensityPattern:
        shift = geom.screen_distance_m * math.sin(tilt)
        shifted = GridSpec(grid.x_min_m - shift, grid.x_max_m - shift,
                           grid.points)
        base = sample_pattern(kind, geom, shifted, PEAK_SINGLE_SLIT,
                              cfg.alpha, cfg.beta)
        return IntensityPattern(x, base.intensity, PEAK_SINGLE_SLIT,
                                dict(base.meta))

    return gen


def run_scenario(cfg: ScenarioConfig,
                 out_dir: Optional[Path] = None) -> ComparisonReport:
    """Evaluate the configured models (and oracle, and washout) on one grid,
    compute duality metrics and divergences, and optionally write CSV/JSON.

    Partial outputs are removed if anything fails mid-run.
    """
    geom = cfg.geometry
    grid = shared_grid(cfg)
    feas = check_feasibility(geom, cfg.focusing_angle_rad,
                             derived_spot_width(cfg))

    patterns: dict[str, IntensityPattern] = {}
    order: list[tuple[str, str]] = []
    for kind in cfg.models:
        pat = sample_pattern(kind, geom, grid, cfg.normalization,
                             cfg.alpha, cfg.beta)
        patterns[kind.value] = pat
        order.append((kind.value, "model"))
    if cfg.oracle_enabled:
        beam = build_beam(cfg)
        apertures = build_apertures(cfg)
        patterns["oracle"] = oracle_pattern(beam, apertures, geom, grid,
                                            cfg.quadrature)
        order.append(("oracle", "oracle"))
    if cfg.washout_theta_rad is not None:
        if cfg.oracle_enabled:
            patterns["washout"] = oracle_pattern(
                beam, apertures, geom, grid, cfg.quadrature,
                cfg.washout_theta_rad, cfg.washout_tilts)
        else:
            patterns["washout"] = washout_pattern(
                _washout_base(cfg, grid), cfg.washout_theta_rad,
                cfg.washout_tilts)
        order.append(("washout", "washout"))

    entries = []
    for name, source in order:
        csv_name = f"{cfg.csv_prefix}_{name}.csv" if out_dir else None
        entries.append(_pattern_entry(name, source, patterns[name], cfg,
                                      csv_name))

    divergences = []
    if cfg.oracle_enabled:
        oracle_shape = _shape_normalized(patterns["oracle"])
        for kind in cfg.models:
            shape = _shape_normalized(patterns[kind.value])
            div = pattern_divergence(shape, oracle_shape)
            divergences.append({
                "model": kind.value,
                "against": "oracle",
                "l2_relative": div.l2_relative,
                "sup_relative": div.sup_relative,
                "visibility_gap": div.visibility_gap,
            })

    p_a, p_b = path_probabilities(cfg)
    summary = {
        "tool": "whichway",
        "tool_version": __version__,
        "geometry": {
            "wavelength_m": geom.wavelength_m,
            "slit_width_m": geom.slit_width_m,
            "slit_separation_m": geom.slit_separation_m,
            "screen_distance_m": geom.screen_distance_m,
        },
        "alignment": cfg.alignment,
        "path_probability_a": p_a,
        "path_probability_b": p_b,
        "feasibility": {
            "half_fringe_angle_rad": feas.half_fringe_angle_rad,
            "focusing_angle_rad": feas.focusing_angle_rad,
            "collimation_ok": feas.collimation_ok,
            "spot_fits_slit": feas.spot_fits_slit,
            "fraunhofer_ok": feas.fraunhofer_ok,
            "messages": list(feas.messages),
        },
        "grid": {
            "x_min_m": grid.x_min_m,
            "x_max_m": grid.x_max_m,
            "points": grid.points,
        },
        "patterns": entries,
        "divergences": divergences,
        "washout": (
            {"theta_rad": cfg.washout_theta_rad, "n_tilts": cfg.washout_tilts}
            if cfg.washout_theta_rad is not None else None),
    }

    csv_paths: list[Path] = []
    json_path: Optional[Path] = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        written: list[Path] = []
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            for name, _ in order:
                path = out_dir / f"{cfg.csv_prefix}_{name}.csv"
                write_pattern_csv(patterns[name], path)
                written.append(path)
                csv_paths.append(path)
            json_path = out_dir / "summary.json"
            write_summary_json(summary, json_path)
            written.append(json_path)
        except BaseException:
            for path in written:
                path.unlink(missing_ok=True)
            raise

    return ComparisonReport(summary=summary, patterns=patterns,
                            csv_paths=tuple(csv_paths), json_path=json_path)


def write_pattern_csv(pattern: IntensityPattern, path: Path) -> None:
    """Two-column CSV ``x_m,intensity`` with 17-significant-digit floats
    (lossless float round-trip)."""
    lines = ["x_m,intensity"]
    for x, v in zip(pattern.x_m, pattern.intensity):
        lines.append(f"{x:.17g},{v:.17g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def write_summary_json(summary: dict, path: Path) -> None:
    Path(path).write_text(json.dumps(summary, indent=2) + "\n",
                          encoding="ascii")


def sweep_scenario(cfg: ScenarioConfig, parameter: str,
                   values: Sequence[float]) -> list[dict]:
    """One row per swept value: feasibility flags plus model/oracle
    visibilities and their divergence.

    Sweeping ``theta`` treats the value as the illumination angular spread:
    it enters the collimation check and washes out the oracle pattern.
    """
    if parameter not in SWEEP_PARAMETERS:
        valid = ", ".join(SWEEP_PARAMETERS)
        raise ConfigError(
            f"unknown sweep parameter {parameter!r} (expected one of: {valid})")

    rows = []
    for value in values:
        sub = cfg
        if parameter == "theta":
            sub = replace(cfg, focusing_angle_rad=value,
                          washout_theta_rad=value)
        elif parameter == "spot_width":
            sub = replace(cfg, spot_width_m=value)
        else:
            field = {"wavelength": "wavelength_m",
                     "s": "slit_width_m",
                     "d": "slit_separation_m",
                     "D": "screen_distance_m"}[parameter]
            try:
                geom = SlitGeometry(**{**_geom_kwargs(cfg.geometry),
                                       field: value})
            except ValueError as exc:
                raise ConfigError(str(exc), key=parameter) from None
            sub = replace(cfg, geometry=geom)

        geom = sub.geometry
        grid = shared_grid(sub)
        feas = check_feasibility(geom, sub.focusing_angle_rad,
                                 derived_spot_width(sub))

        v_model = None
        model_pattern = None
        if sub.models:
            model_pattern = sample_pattern(sub.models[0], geom, grid,
                                           PEAK_SINGLE_SLIT, sub.alpha,
                                           sub.beta)
            v_model = visibility_fringe_local(model_pattern, geom)

        v_oracle = None
        divergence_sup = None
        if sub.oracle_enabled:
            theta = value if parameter == "theta" else 0.0
            oracle_pat = oracle_pattern(build_beam(sub), build_apertures(sub),
                                        geom, grid, sub.quadrature, theta,
                                        sub.washout_tilts)
            v_oracle = visibility_fringe_local(oracle_pat, geom)
            if model_pattern is not None:
                div = pattern_divergence(_shape_normalized(model_pattern),
                                         _shape_normalized(oracle_pat))
                divergence_sup = div.sup_relative

        rows.append({
            "parameter": parameter,
            "value": value,
            "half_fringe_angle_rad": feas.half_fringe_angle_rad,
            "collimation_ok": feas.collimation_ok,
            "spot_fits_slit": feas.spot_fits_slit,
            "fraunhofer_ok": feas.fraunhofer_ok,
            "visibility_model": v_model,
            "visibility_oracle": v_oracle,
            "divergence_sup_relative": divergence_sup,
        })
    return rows


def _geom_kwargs(geom: SlitGeometry) -> dict:
    return {
        "wavelength_m": geom.wavelength_m,
        "slit_width_m": geom.slit_width_m,
        "slit_separation_m": geom.slit_separation_m,
        "screen_distance_m": geom.screen_distance_m,
    }


_SWEEP_COLUMNS = ("parameter", "value", "half_fringe_angle_rad",
                  "collimation_ok", "spot_fits_slit", "fraunhofer_ok",
                  "visibility_model", "visibility_oracle",
                  "divergence_sup_relative")


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


# JSON summary schema, also embedded in the README.
SUMMARY_SCHEMA = {
    "type": "object",
    "required": ["tool", "tool_version", "geometry", "alignment",
                 "path_probability_a", "path_probability_b", "feasibility",
                 "grid", "patterns", "divergences", "washout"],
    "properties": {
        "tool": {"const": "whichway"},
        "tool_version": {"type": "string"},
        "geometry": {
            "type": "object",
            "required": ["wavelength_m", "slit_width_m", "slit_separation_m",
                         "screen_distance_m"],
            "additionalProperties": {"type": "number"},
        },
        "alignment": {"enum": list(ALIGNMENTS)},
        "path_probability_a": {"type": "number", "minimum": 0, "maximum": 1},
        "path_probability_b": {"type": "number", "minimum": 0, "maximum": 1},
        "feasibility": {
            "type": "object",
            "required": ["half_fringe_angle_rad", "focusing_angle_rad",
                         "collimation_ok", "spot_fits_slit", "fraunhofer_ok",
                         "messages"],
        },
        "grid": {
            "type": "object",
            "required": ["x_min_m", "x_max_m", "points"],
        },
        "patterns": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["source", "model", "normalization",
                             "peak_scale_i0_single", "visibility_global",
                             "visibility_fringe_local", "which_way_kind",
                             "which_way_value", "duality_sum",
                             "inequality_satisfied"],
                "properties": {
                    "source": {"enum": ["model", "oracle", "washout"]},
                    "visibility_global": {"type": "number", "minimum": 0,
                                          "maximum": 1},
                    "visibility_fringe_local": {"type": "number", "minimum": 0,
                                                "maximum": 1},
                    "which_way_value": {"type": "number", "minimum": 0,
                                        "maximum": 1},
                    "duality_sum": {"type": "number", "minimum": 0,
                                    "maximum": 2},
                    "inequality_satisfied": {"type": "boolean"},
                },
            },
        },
        "divergences": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["model", "against", "l2_relative",
                             "sup_relative", "visibility_gap"],
            },
        },
        "washout": {
            "oneOf": [
                {"type": "null"},
                {"type": "object",
                 "required": ["theta_rad", "n_tilts"]},
            ],
        },
    },
}


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
    out_dir = Path(args.out_dir) if args.out_dir else None
    report = run_scenario(cfg, out_dir=out_dir)
    print(json.dumps(report.summary, indent=2))
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
    parse_value = parse_angle if args.parameter == "theta" else parse_length
    values = []
    for chunk in args.values.split(","):
        chunk = chunk.strip()
        if chunk:
            try:
                values.append(parse_value(chunk))
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
    cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
    feas = check_feasibility(cfg.geometry, cfg.focusing_angle_rad,
                             derived_spot_width(cfg))
    print(json.dumps({
        "half_fringe_angle_rad": feas.half_fringe_angle_rad,
        "focusing_angle_rad": feas.focusing_angle_rad,
        "spot_width_m": derived_spot_width(cfg),
        "collimation_ok": feas.collimation_ok,
        "spot_fits_slit": feas.spot_fits_slit,
        "fraunhofer_ok": feas.fraunhofer_ok,
        "all_ok": feas.all_ok,
        "messages": list(feas.messages),
    }, indent=2))
    return EXIT_OK


def _cmd_mzi(args: argparse.Namespace) -> int:
    if args.a < 0 or args.b < 0:
        raise ConfigError("amplitudes must be >= 0", key="--a")
    if args.mode == "asymmetric":
        report = asymmetric_duality(args.a, args.b)
        detected = 1.0
    else:
        try:
            cfg = MziConfig(amplitude_a=args.a, amplitude_b=args.b,
                            relative_phase_rad=args.phase_offset,
                            mode=_MZI_MODE_NAMES[args.mode])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        report = mzi_duality(cfg)
        detected = report.meta["detected_fraction"]
    print(json.dumps({
        "mode": args.mode,
        "amplitude_a": args.a,
        "amplitude_b": args.b,
        "which_way_kind": report.which_way_kind,
        "which_way_value": report.which_way_value,
        "visibility": report.visibility,
        "duality_sum": report.duality_sum,
        "inequality_satisfied": report.inequality_satisfied,
        "detected_fraction": detected,
    }, indent=2))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
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
                       choices=list(_MZI_MODE_NAMES) + ["asymmetric"])
    p_mzi.add_argument("--a", type=float, default=math.sqrt(0.5))
    p_mzi.add_argument("--b", type=float, default=math.sqrt(0.5))
    p_mzi.add_argument("--phase-offset", type=float, default=0.0)
    p_mzi.set_defaults(func=_cmd_mzi)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
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
