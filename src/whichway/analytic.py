"""Closed-form screen patterns for the two-slit configuration.

Two families of predictions are provided side by side:

* ``empty_wave_*``: a particle-plus-pilot-wave model in which the particle
  passes one slit while an (empty) wave passes the other.  The occupied
  slit's single-slit envelope is modulated by the full two-slit fringe
  factor, so fringes survive even when only one slit is illuminated.
* ``standard_two_slit`` / ``standard_focused_a``: ordinary Fraunhofer wave
  optics.  Illuminating both slits gives the textbook fringed pattern;
  focusing all of the light onto slit A leaves a bare single-slit envelope.

Intensities are returned in each formula's natural unit (peak of order 1);
the conversion factor to the shared single-slit-peak unit is recorded in
pattern metadata as ``unit_scale``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import SlitGeometry
from .specs import (NORMALIZATIONS, PEAK_SINGLE_SLIT, UNIT_INTEGRAL,
                    GridSpec, ModelKind)

# Series switch for sin(u)/u keeps the evaluation C^2-smooth at u = 0,
# which the extremum interpolation in the metrics module relies on.
_SINC_SERIES_CUTOFF = 1e-4
# A pattern's grid steps may differ from their mean by this fraction of it.
_STEP_RTOL = 1e-9


def _sinc(u):
    """sin(u)/u, with a short even series below the cutoff.  The series is
    evaluated only there: its u**4 overflows for |u| above about 1e77."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < _SINC_SERIES_CUTOFF
    safe = np.where(small, 1.0, u)
    values = np.asarray(np.sin(safe) / safe)
    if small.any():
        u2 = u[small] * u[small]
        values[small] = 1.0 - u2 / 6.0 + u2 * u2 / 120.0
    return values


class PlateTerms:
    """The x-dependent factors of the model formulas on one plate and one
    set of screen points: the single-slit envelope about each centre asked
    for, and the two-slit fringe factor.  Each is evaluated the first time
    a formula asks for it and kept, read-only, for the holder's life, so
    the patterns sampled on one holder evaluate it once and an in-place
    edit of one pattern reaches no other.

    ``points`` is a :class:`GridSpec`, whose points are then read-only too,
    or screen positions x (m), one or many.
    """

    def __init__(self, geom: SlitGeometry, points) -> None:
        self.geom = geom
        self.grid = points if isinstance(points, GridSpec) else None
        if self.grid is not None:
            points = _frozen(points.x())
        self.x_m = np.asarray(points, dtype=float)
        if not np.all(np.isfinite(self.x_m)):
            raise ValueError("x_m must be finite")
        self._envelopes: dict[float, np.ndarray] = {}

    def envelope(self, center_m: float = 0.0):
        """Single-slit envelope [sin(u)/u]^2 with
        u = pi s (x - center) / (lambda D), peak 1 at ``center_m``."""
        values = self._envelopes.get(center_m)
        if values is None:
            geom = self.geom
            u = math.pi * geom.slit_width_m * (self.x_m - center_m) \
                / (geom.wavelength_m * geom.screen_distance_m)
            values = self._envelopes[center_m] = _frozen(_sinc(u) ** 2)
        return values

    @functools.cached_property
    def fringe(self):
        """Two-slit fringe modulation cos^2(pi x d / (lambda D)), in [0, 1]."""
        geom = self.geom
        v = math.pi * geom.slit_separation_m * self.x_m \
            / (geom.wavelength_m * geom.screen_distance_m)
        return _frozen(np.cos(v) ** 2)


# Each model's formula on a holder's factors, in its natural unit.
def _focused_a(terms: PlateTerms):
    return terms.envelope(terms.geom.slit_a_center_m)


def _empty_wave_a(terms: PlateTerms):
    return terms.envelope(terms.geom.slit_a_center_m) * terms.fringe


def _empty_wave_b(terms: PlateTerms):
    return terms.envelope(terms.geom.slit_b_center_m) * terms.fringe


def _empty_wave_sum(terms: PlateTerms):
    return _empty_wave_a(terms) + _empty_wave_b(terms)


def _standard_two_slit(terms: PlateTerms):
    return terms.envelope() * terms.fringe


def _pure_fringe(terms: PlateTerms):
    return terms.fringe


def _general_two_slit(terms: PlateTerms, alpha: float, beta: float):
    if alpha < 0.0 or beta < 0.0:
        raise ValueError("alpha and beta must be >= 0")
    if alpha == 0.0 and beta == 0.0:
        raise ValueError("alpha and beta cannot both be zero")
    total = alpha + beta
    if not 0.0 < total * total < math.inf:
        raise ValueError("(alpha + beta)^2 overflows or is 0")
    geom = terms.geom
    v = 2.0 * math.pi * geom.slit_separation_m * terms.x_m \
        / (geom.wavelength_m * geom.screen_distance_m)
    cross = alpha * alpha + beta * beta + 2.0 * alpha * beta * np.cos(v)
    return terms.envelope(geom.slit_a_center_m) * cross / (alpha + beta) ** 2


def _on_points(formula, geom: SlitGeometry, x_m, *args):
    """``formula`` on its own holder for ``x_m``: a float for one x, else
    an array the caller may write to."""
    values = formula(PlateTerms(geom, x_m), *args)
    if np.ndim(values) == 0:
        return float(values)
    return values if values.flags.writeable else values.copy()


def single_slit_intensity(geom: SlitGeometry, x_m, center_m: float = 0.0):
    """Single-slit envelope [sin(u)/u]^2 with u = pi s (x - center) / (lambda D).

    The peak (value 1) sits at ``center_m``.
    """
    return _on_points(PlateTerms.envelope, geom, x_m, center_m)


def fringe_factor(geom: SlitGeometry, x_m):
    """Two-slit fringe modulation cos^2(pi x d / (lambda D)), in [0, 1]."""
    return _on_points(_pure_fringe, geom, x_m)


def general_two_slit_intensity(geom: SlitGeometry, x_m, alpha: float, beta: float):
    """Two-slit pattern for slit amplitudes alpha (A) and beta (B).

    envelope(x; center = -d/2) * (a^2 + b^2 + 2 a b cos(2 pi x d / lambda D))
    normalized by (a + b)^2 so the fringe maxima touch the envelope.  With
    alpha = beta this reduces exactly to ``empty_wave_a``; with beta = 0 it
    collapses to the bare envelope.
    """
    return _on_points(_general_two_slit, geom, x_m, alpha, beta)


def empty_wave_a(geom: SlitGeometry, x_m):
    """Pilot-wave prediction, particle through slit A: the slit-A envelope
    (peaked opposite slit A) carrying full-contrast two-slit fringes."""
    return _on_points(_empty_wave_a, geom, x_m)


def empty_wave_b(geom: SlitGeometry, x_m):
    """Mirror image of :func:`empty_wave_a` for a particle through slit B."""
    return _on_points(_empty_wave_b, geom, x_m)


def empty_wave_sum(geom: SlitGeometry, x_m):
    """Incoherent sum of the two one-particle pilot-wave patterns."""
    return _on_points(_empty_wave_sum, geom, x_m)


def standard_two_slit(geom: SlitGeometry, x_m):
    """Textbook Fraunhofer two-slit pattern: common envelope times fringes."""
    return _on_points(_standard_two_slit, geom, x_m)


def standard_focused_a(geom: SlitGeometry, x_m):
    """Standard-theory prediction when all light is focused onto slit A:
    a bare single-slit envelope, no fringes."""
    return _on_points(_focused_a, geom, x_m)


def pure_fringe(geom: SlitGeometry, x_m):
    """Point-source fringe factor alone (envelope suppressed)."""
    return _on_points(_pure_fringe, geom, x_m)


def default_grid(kind: ModelKind, geom: SlitGeometry, points: int = 4001) -> GridSpec:
    """Default sampling window for a model.

    Slit-A (slit-B) centered models span 1.2 envelope lobes around their
    envelope peak; symmetric models span the same width around x = 0.
    """
    lobe = geom.wavelength_m * geom.screen_distance_m / geom.slit_width_m
    half = 1.2 * lobe
    if kind in (ModelKind.SINGLE_SLIT_A, ModelKind.EMPTY_WAVE_A,
                ModelKind.STANDARD_FOCUSED_A, ModelKind.GENERAL_TWO_SLIT):
        center = geom.slit_a_center_m
    elif kind is ModelKind.EMPTY_WAVE_B:
        center = geom.slit_b_center_m
    else:
        center = 0.0
    return GridSpec(center - half, center + half, points)


@dataclass(frozen=True)
class IntensityPattern:
    """Sampled screen pattern on a uniform, strictly increasing grid.

    ``meta`` records the generating model, the geometry, and ``unit_scale``
    (multiply ``intensity`` by it to express values in single-slit peak
    units).
    """

    x_m: np.ndarray
    intensity: np.ndarray
    normalization: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        x = np.asarray(self.x_m, dtype=float)
        i = np.asarray(self.intensity, dtype=float)
        object.__setattr__(self, "x_m", x)
        object.__setattr__(self, "intensity", i)
        if x.ndim != 1 or x.size < 2 or i.shape != x.shape:
            raise ValueError("x_m and intensity must be matching 1-d arrays")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(i))):
            raise ValueError("pattern contains non-finite values")
        if np.any(i < 0.0):
            raise ValueError("intensity must be nonnegative")
        _check_steps(x)
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if self.normalization == UNIT_INTEGRAL:
            total = np.trapezoid(i, x)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(
                    f"unit_integral pattern integrates to {total!r}, not 1")

    @property
    def spacing_m(self) -> float:
        return (self.x_m[-1] - self.x_m[0]) / (self.x_m.size - 1)


# kind -> (formula, unit_scale).  The unit scale converts the formula's
# natural intensity unit to the single-slit peak unit.  The fringed one-slit
# patterns ride on a doubled scale (their fringe average has to carry the
# same power as the bare envelope), and the both-slits pattern doubles once
# more.  Only general_two_slit takes the slit amplitudes alpha and beta.
_MODELS = {
    ModelKind.SINGLE_SLIT_A: (_focused_a, 1.0),
    ModelKind.EMPTY_WAVE_A: (_empty_wave_a, 2.0),
    ModelKind.EMPTY_WAVE_B: (_empty_wave_b, 2.0),
    ModelKind.EMPTY_WAVE_SUM: (_empty_wave_sum, 2.0),
    ModelKind.STANDARD_TWO_SLIT: (_standard_two_slit, 4.0),
    ModelKind.STANDARD_FOCUSED_A: (_focused_a, 1.0),
    ModelKind.PURE_FRINGE: (_pure_fringe, 1.0),
    ModelKind.GENERAL_TWO_SLIT: (_general_two_slit, 2.0),
}


def sample_pattern(kind: ModelKind, geom: SlitGeometry,
                   grid: Optional[GridSpec] = None,
                   normalization: str = PEAK_SINGLE_SLIT,
                   alpha: float = 1.0, beta: float = 1.0, *,
                   terms: Optional[PlateTerms] = None) -> IntensityPattern:
    """Evaluate a model on a grid and wrap it as an :class:`IntensityPattern`.

    ``terms``, a :class:`PlateTerms` built for ``geom`` and the grid, lets
    the patterns of one plate and grid share their factors: each envelope
    and the fringe factor is then evaluated once for all of them, with the
    same bits as alone.  The pattern's points, and its intensity where the
    model is one factor (``single_slit_a``, ``standard_focused_a`` and
    ``pure_fringe`` at peak normalization), are the holder's read-only
    arrays.
    """
    if not isinstance(kind, ModelKind):
        raise ValueError(f"unknown model kind {kind!r}")
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization {normalization!r}")
    if grid is None:
        grid = default_grid(kind, geom)
    if terms is None:
        terms = PlateTerms(geom, grid)
    elif terms.geom != geom or terms.grid != grid:
        raise ValueError("terms were built for another plate or grid")
    x = terms.x_m
    formula, unit_scale = _MODELS[kind]
    amplitudes = {}
    if kind is ModelKind.GENERAL_TWO_SLIT:
        amplitudes = {"alpha": alpha, "beta": beta}
    values = formula(terms, **amplitudes)

    if normalization == UNIT_INTEGRAL:
        total = float(np.trapezoid(values, x))
        if total <= 0.0:
            raise ValueError("pattern integrates to zero; cannot normalize")
        values = values / total
        unit_scale = unit_scale * total

    meta = {
        "model": kind.value,
        "geometry": geom,
        "unit_scale": unit_scale,
        **amplitudes,
    }
    return IntensityPattern(x_m=x, intensity=values,
                            normalization=normalization, meta=meta)


def _check_steps(x: np.ndarray) -> None:
    """Raise ValueError unless the points ``x`` (two or more) are strictly
    increasing and their steps agree to ``_STEP_RTOL`` of the mean step."""
    steps = np.diff(x)
    if np.any(steps <= 0.0):
        raise ValueError("x_m must be strictly increasing")
    mean_step = (x[-1] - x[0]) / (x.size - 1)
    if np.max(np.abs(steps - mean_step)) > _STEP_RTOL * abs(mean_step):
        raise ValueError("x_m must be uniformly spaced")


def _frozen(values):
    """``values``, made read-only when it is an array."""
    if isinstance(values, np.ndarray):
        values.flags.writeable = False
    return values
