"""Numerical far-field diffraction oracle.

Integrates the scalar diffraction kernel exp(-i 2 pi x xi / (lambda D))
against the illuminating field over explicit aperture intervals with
Gauss-Legendre quadrature, refined by node doubling until two successive
refinements agree.  This route shares no algebra with the closed-form models
in :mod:`whichway.analytic`, so agreement between the two is a real check.

Angular washout uses the Fourier shift theorem: a tilt t moves the far field
by s = D sin t, and exp(-i k (x - s) xi) = exp(-i k x xi) exp(i k xi s), so
every tilt is a phase on the same aperture samples and one kernel per
refinement level serves all of them.  The kernel is built in blocks of screen
rows and the tilts are taken in blocks of columns, both sized from
``_BLOCK_BYTES``, so memory does not grow with node or tilt counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .analytic import (PEAK_SINGLE_SLIT, GridSpec, IntensityPattern)
from .beam import BeamProfile, amplitude_at
from .geometry import SlitGeometry

# Working-set budget for one block of kernel rows and for one block of
# washout columns (complex128 entries of 16 bytes each).
_BLOCK_BYTES = 4 << 20
_COMPLEX_BYTES = 16


class ConvergenceError(RuntimeError):
    """Quadrature refinement did not reach the requested tolerance.

    Carries the last two whole-grid estimates and the screen coordinate
    where they disagree most; for a batch of shifted columns, those of the
    worst unconverged column and its shift.
    """

    def __init__(self, message: str, last_estimate=None,
                 previous_estimate=None, worst_x_m: float | None = None,
                 shift_m: float | None = None):
        super().__init__(message)
        self.last_estimate = last_estimate
        self.previous_estimate = previous_estimate
        self.worst_x_m = worst_x_m
        self.shift_m = shift_m


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre settings: starting nodes per interval, relative
    agreement target between refinements, and how many doublings to try."""

    nodes_per_interval: int = 32
    relative_tolerance: float = 1e-12
    max_refinements: int = 6

    def __post_init__(self) -> None:
        if self.nodes_per_interval < 8:
            raise ValueError("nodes_per_interval must be >= 8")
        if not (0.0 < self.relative_tolerance < 1.0):
            raise ValueError("relative_tolerance must lie in (0, 1)")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be >= 1")


@dataclass(frozen=True)
class ApertureSet:
    """Open intervals in the slit plane with a per-interval extra phase."""

    intervals: tuple[tuple[float, float], ...]
    phases_rad: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.intervals) == 0:
            raise ValueError("at least one aperture interval is required")
        if len(self.phases_rad) != len(self.intervals):
            raise ValueError("need exactly one phase per interval")
        for lo, hi in self.intervals:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"bad interval ({lo!r}, {hi!r})")
        ordered = sorted(self.intervals)
        for (_, hi), (lo, _) in zip(ordered, ordered[1:]):
            if lo < hi:
                raise ValueError("aperture intervals must not overlap")
        for p in self.phases_rad:
            if not math.isfinite(p):
                raise ValueError("phases must be finite")


def two_slit_apertures(geom: SlitGeometry, phase_a_rad: float = 0.0,
                       phase_b_rad: float = 0.0) -> ApertureSet:
    """The canonical pair of slit openings, width s around +-d/2."""
    half_s = 0.5 * geom.slit_width_m
    a = geom.slit_a_center_m
    b = geom.slit_b_center_m
    return ApertureSet(
        intervals=((a - half_s, a + half_s), (b - half_s, b + half_s)),
        phases_rad=(phase_a_rad, phase_b_rad),
    )


def single_slit_aperture(geom: SlitGeometry, slit: str = "a",
                         phase_rad: float = 0.0) -> ApertureSet:
    """One slit opening alone ('a' or 'b')."""
    if slit not in ("a", "b"):
        raise ValueError("slit must be 'a' or 'b'")
    center = geom.slit_a_center_m if slit == "a" else geom.slit_b_center_m
    half_s = 0.5 * geom.slit_width_m
    return ApertureSet(intervals=((center - half_s, center + half_s),),
                       phases_rad=(phase_rad,))


@lru_cache(maxsize=32)
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _amplitude_fixed(beam: BeamProfile, apertures: ApertureSet,
                     geom: SlitGeometry, x: np.ndarray, n: int,
                     shifts: np.ndarray | None = None) -> np.ndarray:
    """Single-pass amplitude with exactly n Gauss-Legendre nodes per interval.

    With ``shifts`` the result has one column per shift s, holding the
    amplitude at x - s; all columns share each block of kernel rows.
    """
    k_screen = 2.0 * math.pi / (geom.wavelength_m * geom.screen_distance_m)
    t, w = _gl_nodes(n)
    xi, f = [], []
    for (lo, hi), phase in zip(apertures.intervals, apertures.phases_rad):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        xi.append(mid + half * t)
        f.append(half * w * complex(math.cos(phase), math.sin(phase)))
    xi = np.concatenate(xi)
    f = amplitude_at(beam, xi, geom.wavelength_m) * np.concatenate(f)
    columns = np.zeros(1) if shifts is None else shifts
    f = f[:, None] * np.exp(1j * k_screen * np.outer(xi, columns))

    amp = np.empty((x.size, columns.size), dtype=complex)
    rows = max(1, _BLOCK_BYTES // (_COMPLEX_BYTES * xi.size))
    buffer = np.empty((min(rows, x.size), xi.size), dtype=complex)
    for start in range(0, x.size, rows):
        stop = min(start + rows, x.size)
        kernel = buffer[:stop - start]
        np.multiply.outer(x[start:stop], xi, out=kernel)
        kernel *= -1j * k_screen
        np.exp(kernel, out=kernel)
        np.matmul(kernel, f, out=amp[start:stop])
    return amp[:, 0] if shifts is None else amp


def fraunhofer_amplitude(beam: BeamProfile, apertures: ApertureSet,
                         geom: SlitGeometry, x_m,
                         quad: QuadratureSpec | None = None, shifts_m=None):
    """Far-field amplitude at screen coordinate(s) ``x_m``.

    Node count doubles until two successive estimates agree to the requested
    relative tolerance (measured against the largest amplitude on the grid);
    raises :class:`ConvergenceError` otherwise.

    With ``shifts_m`` (a 1-D array) the result is an (x, shift) array whose
    column j is the amplitude at ``x_m - shifts_m[j]``.  Each column
    converges on its own and stops refining at the first level where it
    agrees with the previous one.
    """
    if quad is None:
        quad = QuadratureSpec()
    x = np.atleast_1d(np.asarray(x_m, dtype=float))
    if not np.all(np.isfinite(x)):
        raise ValueError("x_m must be finite")
    shifts = np.zeros(1) if shifts_m is None \
        else np.atleast_1d(np.asarray(shifts_m, dtype=float))
    if not np.all(np.isfinite(shifts)):
        raise ValueError("shifts_m must be finite")

    def result(columns: np.ndarray):
        if shifts_m is not None:
            return columns
        if np.ndim(x_m) == 0:
            return complex(columns[0, 0])
        return columns[:, 0]

    if x.size == 0 or shifts.size == 0:
        return result(np.zeros((x.size, shifts.size), dtype=complex))

    # out holds every column's latest estimate; only the columns in cols
    # are still refining.  Columns are compared one at a time so no
    # temporary grows with the column count.
    n = quad.nodes_per_interval
    out = _amplitude_fixed(beam, apertures, geom, x, n, shifts)
    cols = np.arange(shifts.size)
    for _ in range(quad.max_refinements):
        n *= 2
        cur = _amplitude_fixed(beam, apertures, geom, x, n, shifts[cols])
        diff = np.array([np.max(np.abs(cur[:, j] - out[:, c]))
                         for j, c in enumerate(cols)])
        scale = np.array([np.max(np.abs(cur[:, j]))
                          for j in range(cols.size)])
        scale[scale == 0.0] = 1.0
        converged = diff <= quad.relative_tolerance * scale
        worst = cols[int(np.argmax(diff / scale))]
        prev = out[:, worst].copy()
        out[:, cols] = cur
        del cur  # freed before the next level allocates its estimate
        if np.all(converged):
            return result(out)
        cols = cols[~converged]

    last = out[:, worst].copy()
    worst_x = float(x[int(np.argmax(np.abs(last - prev)))])
    shift = float(shifts[worst])
    raise ConvergenceError(
        f"quadrature did not converge to {quad.relative_tolerance:.1e} "
        f"after {quad.max_refinements} refinements ({n} nodes/interval) "
        f"at shift {shift:.6g} m; worst disagreement at x = {worst_x:.6g} m",
        last_estimate=last, previous_estimate=prev, worst_x_m=worst_x,
        shift_m=shift)


def _washout_tilts(theta_rad: float, n_tilts: int) -> np.ndarray:
    """Tilts uniform in [-theta, theta]; just the untilted one at theta 0."""
    if theta_rad < 0.0:
        raise ValueError("theta_rad must be >= 0")
    if n_tilts < 1 or n_tilts % 2 == 0:
        raise ValueError("n_tilts must be a positive odd count")
    if theta_rad == 0.0:
        return np.zeros(1)
    return np.linspace(-theta_rad, theta_rad, n_tilts)


def oracle_pattern(beam: BeamProfile, apertures: ApertureSet,
                   geom: SlitGeometry, grid: GridSpec,
                   quad: QuadratureSpec | None = None,
                   theta_rad: float = 0.0,
                   n_tilts: int = 101) -> IntensityPattern:
    """|amplitude|^2 on a grid, normalized to its own peak.

    With ``theta_rad`` > 0 the pattern is washed out over ``n_tilts`` (odd)
    illumination tilts uniform in [-theta, theta]: a tilt t shifts the far
    field by D sin t, the members' absolute intensities are averaged, and
    the average is normalized once by its own peak.  Tilts are taken in
    column blocks sized from ``_BLOCK_BYTES``, so memory does not grow with
    ``n_tilts``.

    The absolute peak intensity is recorded in ``meta['peak_abs']``.
    """
    x = grid.x()
    shifts = geom.screen_distance_m * np.sin(_washout_tilts(theta_rad,
                                                            n_tilts))
    width = max(1, _BLOCK_BYTES // (_COMPLEX_BYTES * x.size))
    intensity = np.zeros(x.size)
    for block in np.array_split(shifts, -(-shifts.size // width)):
        intensity += np.sum(np.abs(fraunhofer_amplitude(
            beam, apertures, geom, x, quad, shifts_m=block)) ** 2, axis=1)
    intensity /= shifts.size
    peak = float(np.max(intensity))
    if peak <= 0.0:
        raise ValueError("oracle pattern is identically zero")
    meta = {
        "model": "oracle",
        "geometry": geom,
        "unit_scale": 1.0,
        "peak_abs": peak,
        "beam": type(beam).__name__,
    }
    if theta_rad > 0.0:
        meta.update({
            "washout_theta_rad": theta_rad,
            "washout_tilts": n_tilts,
            "model": "washout(oracle)",
        })
    return IntensityPattern(x_m=x, intensity=intensity / peak,
                            normalization=PEAK_SINGLE_SLIT, meta=meta)


def washout_pattern(base: Callable[[float], IntensityPattern],
                    theta_rad: float, n_tilts: int = 101) -> IntensityPattern:
    """Incoherent average of ``base(tilt)`` over tilts uniform in [-theta, theta].

    ``base`` must return patterns on one fixed grid; a tilted plane wave
    shifts the far-field pattern by D * sin(tilt), so averaging models an
    angular spread of illumination directions.  ``n_tilts`` must be odd so
    the untilted member is included.  The oracle's own washout is
    :func:`oracle_pattern` with ``theta_rad`` > 0.
    """
    tilts = _washout_tilts(theta_rad, n_tilts)
    if theta_rad == 0.0:
        return base(0.0)

    first = base(float(tilts[0]))
    acc = np.array(first.intensity, dtype=float)
    for t in tilts[1:]:
        p = base(float(t))
        if not np.array_equal(p.x_m, first.x_m):
            raise ValueError("washout members must share one grid")
        if p.normalization != first.normalization:
            raise ValueError("washout members must share one normalization")
        acc += p.intensity
    acc /= n_tilts
    meta = dict(first.meta)
    meta.update({
        "washout_theta_rad": theta_rad,
        "washout_tilts": n_tilts,
        "model": f"washout({first.meta.get('model', '?')})",
    })
    return IntensityPattern(x_m=first.x_m, intensity=acc,
                            normalization=first.normalization, meta=meta)
