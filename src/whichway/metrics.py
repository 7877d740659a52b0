"""Duality metrics: fringe visibility and pattern divergence, next to the
divergence record, the which-way predictability and the P^2 + V^2
bookkeeping of :mod:`whichway.specs` (imported here, so all are read from
this module too).

Two visibility notions are kept deliberately distinct.  ``visibility_global``
is the raw (max - min)/(max + min) over the whole sampled pattern; it reads
envelope structure as "visibility" and is reported for reference only.
``visibility_fringe_local`` measures contrast between neighboring extrema at
the fringe scale and is the quantity used in duality sums.
"""

from __future__ import annotations

import math

import numpy as np

from .analytic import IntensityPattern
from .geometry import SlitGeometry, fringe_period
from .specs import (  # noqa: F401 (read from this module too)
    DISTINGUISHABILITY, DUALITY_TOLERANCE, PREDICTABILITY, DualityReport,
    PatternDivergence, duality_report, predictability)

_SAMPLES_PER_PERIOD = 8


class ResolutionError(ValueError):
    """Grid too coarse to resolve the fringe period."""


def visibility_global(pattern: IntensityPattern) -> float:
    """(max - min) / (max + min) over the full sampled pattern."""
    hi = float(np.max(pattern.intensity))
    lo = float(np.min(pattern.intensity))
    if hi <= 0.0:
        raise ValueError("pattern is identically zero; visibility undefined")
    return (hi - lo) / (hi + lo)


def check_resolution(spacing_m: float, geom: SlitGeometry) -> None:
    """Raise :class:`ResolutionError` unless a grid of this spacing samples
    the fringe period at least ``_SAMPLES_PER_PERIOD`` times."""
    period = fringe_period(geom)
    required = period / _SAMPLES_PER_PERIOD
    if spacing_m > required:
        raise ResolutionError(
            f"grid spacing {spacing_m:.6g} m cannot resolve the fringe period "
            f"{period:.6g} m; need spacing <= {required:.6g} m")


def visibility_fringe_local(pattern: IntensityPattern,
                            geom: SlitGeometry) -> float:
    """Fringe contrast near the pattern peak.

    Locates the interior local minimum nearest the global maximum within
    +-1.5 fringe periods, the lowest sample among those equally near, and
    returns the contrast of the parabolically interpolated extremum pair.
    A pattern with no interior minimum there is fringe-free; its residual
    contrast is measured across the max-to-min half-span of a would-be
    fringe (a quarter period each side of the peak).
    """
    x = pattern.x_m
    values = pattern.intensity
    period = fringe_period(geom)
    check_resolution(pattern.spacing_m, geom)

    i_peak = int(np.argmax(values))
    distance = np.abs(x - x[i_peak])
    idx = np.nonzero(distance <= 1.5 * period)[0]
    # The window's interior samples, each compared with both neighbours.
    lo_i, hi_i = max(int(idx[0]), 1), min(int(idx[-1]), x.size - 2)
    mid = values[lo_i:hi_i + 1]
    left, right = values[lo_i - 1:hi_i], values[lo_i + 1:hi_i + 2]
    minima = lo_i + np.nonzero((mid <= left) & (mid <= right)
                               & ((mid < left) | (mid < right)))[0]
    if minima.size == 0:
        seg = values[distance <= 0.25 * period]
        hi, lo = float(np.max(seg)), float(np.min(seg))
        if hi <= 0.0:
            return 0.0
        return (hi - lo) / (hi + lo)

    i_min = int(minima[np.lexsort((values[minima], distance[minima]))[0]])
    v_max = _interp_extremum(values, i_peak)
    v_min = max(_interp_extremum(values, i_min), 0.0)
    return min(max((v_max - v_min) / (v_max + v_min), 0.0), 1.0)


def _interp_extremum(values: np.ndarray, i: int) -> float:
    """Vertex value of the parabola through samples i-1, i, i+1."""
    if i <= 0 or i >= values.size - 1:
        return float(values[i])
    y0, y1, y2 = float(values[i - 1]), float(values[i]), float(values[i + 1])
    curv = y0 - 2.0 * y1 + y2
    if curv == 0.0:
        return y1
    return y1 - (y2 - y0) ** 2 / (8.0 * curv)


def pattern_divergence(a: IntensityPattern, b: IntensityPattern) -> PatternDivergence:
    """Quantify how far apart two patterns on the same grid are.

    Both patterns are first converted to the common single-slit peak unit via
    their ``unit_scale`` metadata.  ``sup_relative`` is the peak-relative
    sup-norm distance, ``l2_relative`` the norm-relative l2 distance, and
    ``visibility_gap`` the difference of fringe-local visibilities.
    """
    if a.x_m.shape != b.x_m.shape or not np.array_equal(a.x_m, b.x_m):
        raise ValueError("patterns must share an identical grid")
    geom_a = a.meta.get("geometry")
    geom_b = b.meta.get("geometry")
    if geom_a is None or geom_b is None:
        raise ValueError("patterns must carry geometry metadata")
    if geom_a != geom_b:
        raise ValueError("patterns come from different geometries")

    ca = a.intensity * float(a.meta.get("unit_scale", 1.0))
    cb = b.intensity * float(b.meta.get("unit_scale", 1.0))
    peak = max(float(np.max(ca)), float(np.max(cb)))
    if peak <= 0.0:
        raise ValueError("both patterns are identically zero")
    diff = ca - cb
    sup_rel = float(np.max(np.abs(diff))) / peak
    norm = max(float(np.linalg.norm(ca)), float(np.linalg.norm(cb)))
    l2_rel = float(np.linalg.norm(diff)) / norm
    gap = abs(visibility_fringe_local(a, geom_a)
              - visibility_fringe_local(b, geom_b))
    return PatternDivergence(l2_relative=l2_rel, sup_relative=sup_rel,
                             visibility_gap=gap)


def fringe_carrier_phase(x_m, values, geom: SlitGeometry) -> float:
    """Phase psi of the fringe-frequency component of ``values``.

    Demodulates at the two-slit carrier 2 pi d / (lambda D) under a Hann
    window.  If ``values`` contains a component R cos(omega x - psi), the
    returned psi (in (-pi, pi]) places its maxima at
    x = (psi + 2 pi m) lambda D / (2 pi d).  ``values`` may be any real
    array, e.g. a fringe component after envelope subtraction.
    """
    x = np.asarray(x_m, dtype=float)
    v = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.shape != v.shape or x.size < 8:
        raise ValueError("x_m and values must be matching 1-d arrays (>= 8 points)")
    omega = 2.0 * math.pi * geom.slit_separation_m \
        / (geom.wavelength_m * geom.screen_distance_m)
    span = x[-1] - x[0]
    if omega * span < 2.0 * math.pi:
        raise ValueError("window spans less than one fringe period")
    window = np.hanning(x.size)
    z = np.sum(window * v * np.exp(-1j * omega * x))
    if abs(z) == 0.0:
        raise ValueError("no fringe-frequency component present")
    return float(-np.angle(z))
