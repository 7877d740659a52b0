"""Numerical far-field diffraction oracle.

Integrates the scalar diffraction kernel exp(-i 2 pi x xi / (lambda D))
against the illuminating field over explicit aperture intervals with
Gauss-Legendre quadrature, refined by node doubling until two successive
refinements agree.  This route shares no algebra with the closed-form models
in :mod:`whichway.analytic`, so agreement between the two is a real check.

Angular washout uses the Fourier shift theorem: a tilt t moves the far field
by s = D sin t, and exp(-i k (x - s) xi) = exp(-i k x xi) exp(i k xi s), so
every tilt is the phase V(xi, s) = exp(i k xi s) on the same aperture
samples.  The washout sums |A_s(x)|^2 over the tilts, and with the SVD
V = U S W^H that sum is sum_r |C_r(x)|^2 over the coherent modes C = A W
(Wolf's coherent-mode representation of partially coherent light).  V has
low numerical rank (about 10 at the paper's angles, out of 101 tilts), so a
washout integrates a few mode columns instead of one column per tilt.  W is
taken once per washout from V on a fixed proxy set of nodes, so the mode
columns are the same functions at every refinement level and refine like
amplitudes.  The modes are taken in blocks of columns sized from
``_BLOCK_BYTES``, so memory does not grow with tilt or mode counts.

The screen grid is evenly spaced, so a kernel row factors into the row at
its block's first point times a row of a small step table,
exp(-i k x_{a+r} xi) = exp(-i k x_a xi) exp(-i k r dx xi).  With blocks of
about sqrt(N) rows a level takes about 2 sqrt(N) complex exponentials per
node instead of N; the step table is capped at ``_BLOCK_BYTES``, which
caps the rows per block.  Full blocks are evaluated in groups whose anchored
columns fit in ``_GROUP_BYTES``, with one exponential of the group's anchor
rows, one product with the columns and one stacked matmul per group instead
of three numpy calls per block.  The ragged last block is evaluated alone.
Every gemm keeps the shape it has block by block, so grouping moves no
output bit.
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
# Budget for the anchored columns of one group of kernel row blocks; small
# enough to stay in cache.  Not _BLOCK_BYTES, which also splits the washout
# into blocks of mode columns, and with them the summed output bits.
_GROUP_BYTES = 256 << 10
_COMPLEX_BYTES = 16
# Screen points may deviate from x_0 + j dx by this many ulps of the grid's
# largest magnitude: a linspace is exact to about one, a shifted one to two.
_EVEN_SPACING_ULPS = 8
# A washout keeps the coherent modes with sigma_r > _MODE_CUTOFF * sigma_1.
_MODE_CUTOFF = 1e-13


class ConvergenceError(RuntimeError):
    """Quadrature refinement did not reach the requested tolerance.

    Carries the last two whole-grid estimates and the screen coordinate
    where they disagree most; for a batch of shifted columns, those of the
    worst unconverged column and its shift.  ``history`` holds one
    ``(nodes_per_interval, max |diff| / scale)`` pair per refinement level,
    the largest ratio over the columns at that level.
    """

    def __init__(self, message: str, last_estimate=None,
                 previous_estimate=None, worst_x_m: float | None = None,
                 shift_m: float | None = None,
                 history: tuple[tuple[int, float], ...] = ()):
        super().__init__(message)
        self.last_estimate = last_estimate
        self.previous_estimate = previous_estimate
        self.worst_x_m = worst_x_m
        self.shift_m = shift_m
        self.history = history


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


def single_slit_aperture(geom: SlitGeometry, slit: str = "a") -> ApertureSet:
    """One slit opening alone ('a' or 'b')."""
    if slit not in ("a", "b"):
        raise ValueError("slit must be 'a' or 'b'")
    center = geom.slit_a_center_m if slit == "a" else geom.slit_b_center_m
    half_s = 0.5 * geom.slit_width_m
    return ApertureSet(intervals=((center - half_s, center + half_s),),
                       phases_rad=(0.0,))


@lru_cache(maxsize=32)
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _aperture_nodes(apertures: ApertureSet, n: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes xi on every interval, n per interval, and their
    weights times the interval's phase factor."""
    t, w = _gl_nodes(n)
    xi, weights = [], []
    for (lo, hi), phase in zip(apertures.intervals, apertures.phases_rad):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        xi.append(mid + half * t)
        weights.append(half * w * complex(math.cos(phase), math.sin(phase)))
    return np.concatenate(xi), np.concatenate(weights)


def _mode_phases(k_screen: float, xi: np.ndarray, shifts: np.ndarray,
                 modes: np.ndarray) -> np.ndarray:
    """exp(i k xi s) @ modes, one row per node, built in blocks of nodes so
    that no nodes x shifts matrix outgrows ``_BLOCK_BYTES``."""
    out = np.empty((xi.size, modes.shape[1]), dtype=complex)
    rows = max(1, _BLOCK_BYTES // (_COMPLEX_BYTES * shifts.size))
    for start in range(0, xi.size, rows):
        phases = np.exp(1j * k_screen * np.outer(xi[start:start + rows],
                                                  shifts))
        np.matmul(phases, modes, out=out[start:start + rows])
    return out


def _amplitude_fixed(beam: BeamProfile, apertures: ApertureSet,
                     geom: SlitGeometry, x: np.ndarray, n: int,
                     shifts: np.ndarray | None = None,
                     modes: np.ndarray | None = None) -> np.ndarray:
    """Single-pass amplitude with exactly n Gauss-Legendre nodes per interval
    on the evenly spaced points ``x``.

    With ``shifts`` the result has one column per shift s, holding the
    amplitude at x - s; all columns share each block of kernel rows.  With
    ``modes`` (shifts x R) as well, it has one column per mode instead:
    the shifted columns times ``modes``.
    """
    k_screen = 2.0 * math.pi / (geom.wavelength_m * geom.screen_distance_m)
    xi, weights = _aperture_nodes(apertures, n)
    f = amplitude_at(beam, xi, geom.wavelength_m) * weights
    if modes is None:
        columns = np.zeros(1) if shifts is None else shifts
        f = f[:, None] * np.exp(1j * k_screen * np.outer(xi, columns))
    else:
        f = f[:, None] * _mode_phases(k_screen, xi, shifts, modes)

    # Block of rows r = 0..rows-1 from x[start]: kernel = steps * anchor row.
    dx = (x[-1] - x[0]) / (x.size - 1) if x.size > 1 else 0.0
    rows = min(math.isqrt(x.size - 1) + 1,
               max(1, _BLOCK_BYTES // (_COMPLEX_BYTES * xi.size)))
    steps = np.exp(np.multiply.outer(np.arange(rows) * dx, xi)
                   * (-1j * k_screen))
    amp = np.empty((x.size, f.shape[1]), dtype=complex)
    # The ragged last block gets a gemm of its own row count: padded to a
    # full block, its gemm could round differently.
    full = x.size - x.size % rows
    span = rows * max(1, _GROUP_BYTES // (_COMPLEX_BYTES * f.size))
    for start in range(0, full, span):
        stop = min(start + span, full)
        anchors = np.exp(np.multiply.outer((-1j * k_screen)
                                           * x[start:stop:rows], xi))
        np.matmul(steps, anchors[:, :, None] * f,
                  out=amp[start:stop].reshape(-1, rows, f.shape[1]))
    if full < x.size:
        anchor = np.exp(xi * (-1j * k_screen * x[full]))
        np.matmul(steps[:x.size - full], anchor[:, None] * f, out=amp[full:])
    return amp[:, 0] if shifts is None else amp


def _coherent_modes(beam: BeamProfile, apertures: ApertureSet,
                    geom: SlitGeometry, shifts: np.ndarray, n: int
                    ) -> tuple[np.ndarray, float]:
    """Mode weights W (shifts x R) of a washout, and its truncation bound.

    V = exp(i k xi s) on a proxy of n nodes per interval has the SVD
    U S W^H; the kept modes are those with sigma_r > ``_MODE_CUTOFF`` sigma_1.
    While R fills the proxy (and is short of the shift count), the proxy is
    too coarse to span the tilt phases, so n doubles.  The bound is
    sigma_{R+1}^2 sum |f|^2 over the proxy nodes, 0 when no mode is dropped.
    """
    k_screen = 2.0 * math.pi / (geom.wavelength_m * geom.screen_distance_m)
    while True:
        xi, weights = _aperture_nodes(apertures, n)
        _, sigma, wh = np.linalg.svd(
            np.exp(1j * k_screen * np.outer(xi, shifts)), full_matrices=False)
        rank = int(np.count_nonzero(sigma > _MODE_CUTOFF * sigma[0]))
        if rank < xi.size or rank == shifts.size:
            break
        n *= 2
    bound = 0.0
    if rank < sigma.size:
        f = amplitude_at(beam, xi, geom.wavelength_m) * weights
        bound = float(sigma[rank] ** 2 * np.sum(np.abs(f) ** 2))
    return wh[:rank].conj().T, bound


def _worst_shift(delta: np.ndarray, modes: np.ndarray) -> int:
    """Index j of the shifted column (delta @ modes^H)_j with the largest
    magnitude, built in blocks of rows."""
    to_shifts = modes.conj().T
    rows = max(1, _BLOCK_BYTES // (_COMPLEX_BYTES * to_shifts.shape[1]))
    largest = np.zeros(to_shifts.shape[1])
    for start in range(0, delta.shape[0], rows):
        block = np.abs(delta[start:start + rows] @ to_shifts)
        np.maximum(largest, np.max(block, axis=0), out=largest)
    return int(np.argmax(largest))


def fraunhofer_amplitude(beam: BeamProfile, apertures: ApertureSet,
                         geom: SlitGeometry, x_m,
                         quad: QuadratureSpec | None = None, shifts_m=None,
                         modes=None, min_scale: float = 0.0):
    """Far-field amplitude at screen coordinate(s) ``x_m``.

    Node count doubles until two successive estimates agree to the requested
    relative tolerance (measured against the largest amplitude on the grid);
    raises :class:`ConvergenceError` otherwise.

    With ``shifts_m`` (a 1-D array) the result is an (x, shift) array whose
    column j is the amplitude A_j at ``x_m - shifts_m[j]``.  All columns
    refine together until every column agrees with its previous estimate
    to the tolerance of its own largest amplitude.

    With ``modes`` as well (an (n_shifts, R) array W) the result is the
    (x, R) array C = A W of coherent-mode columns.  Every mode column must
    agree with its previous estimate to the tolerance of one common scale,
    sqrt(max_x sum_r |C_r|^2 / n_shifts): the root of the washout's peak
    when W has orthonormal columns spanning the tilts.  On failure the
    shifted columns of the last two estimates are rebuilt as C W^H to name
    the worst shift.

    Every scale is raised to at least ``min_scale``, which lets a call that
    holds only some of a washout's modes use the peak of the others.

    ``x_m`` must be evenly spaced, ``x_0 + j dx`` to within a few ulps of its
    largest magnitude (any scalar or pair of points is); otherwise this
    raises ``ValueError``.
    """
    if quad is None:
        quad = QuadratureSpec()
    x = np.atleast_1d(np.asarray(x_m, dtype=float))
    if not np.all(np.isfinite(x)):
        raise ValueError("x_m must be finite")
    if x.size > 2:
        ramp = x[0] + np.arange(x.size) * ((x[-1] - x[0]) / (x.size - 1))
        tolerance = _EVEN_SPACING_ULPS * np.finfo(float).eps \
            * max(abs(x[0]), abs(x[-1]))
        if not np.all(np.abs(x - ramp) <= tolerance):
            raise ValueError("x_m must be evenly spaced")
    shifts = np.zeros(1) if shifts_m is None \
        else np.atleast_1d(np.asarray(shifts_m, dtype=float))
    if not np.all(np.isfinite(shifts)):
        raise ValueError("shifts_m must be finite")
    if modes is not None:
        modes = np.asarray(modes, dtype=complex)
        if shifts_m is None or modes.ndim != 2 \
                or modes.shape[0] != shifts.size:
            raise ValueError("modes needs one row per entry of shifts_m")

    def result(columns: np.ndarray):
        if shifts_m is not None:
            return columns
        if np.ndim(x_m) == 0:
            return complex(columns[0, 0])
        return columns[:, 0]

    width = shifts.size if modes is None else modes.shape[1]
    if x.size == 0 or width == 0:
        return result(np.zeros((x.size, width), dtype=complex))

    # Columns are compared one at a time so no temporary grows with their
    # count; at most two whole estimates (prev, cur) are alive at once.
    n = quad.nodes_per_interval
    cur = _amplitude_fixed(beam, apertures, geom, x, n, shifts, modes)
    history = []
    for _ in range(quad.max_refinements):
        n *= 2
        prev = cur
        cur = _amplitude_fixed(beam, apertures, geom, x, n, shifts, modes)
        diff = np.array([np.max(np.abs(c - p)) for c, p in zip(cur.T, prev.T)])
        if modes is None:
            scale = np.array([np.max(np.abs(c)) for c in cur.T])
        else:
            energy = np.zeros(x.size)
            for c in cur.T:
                energy += c.real ** 2 + c.imag ** 2
            scale = np.full(width, math.sqrt(np.max(energy) / shifts.size))
        scale = np.maximum(scale, min_scale)
        scale[scale == 0.0] = 1.0
        if np.all(diff <= quad.relative_tolerance * scale):
            return result(cur)
        history.append((n, float(np.max(diff / scale))))

    if modes is None:
        worst = int(np.argmax(diff / scale))
        last, prev = cur[:, worst].copy(), prev[:, worst].copy()
    else:
        # One common scale, so the worst shift has the largest |diff|.
        worst = _worst_shift(cur - prev, modes)
        last, prev = cur @ modes[worst].conj(), prev @ modes[worst].conj()
    worst_x = float(x[int(np.argmax(np.abs(last - prev)))])
    shift = float(shifts[worst])
    raise ConvergenceError(
        f"quadrature did not converge to {quad.relative_tolerance:.1e} "
        f"after {quad.max_refinements} refinements ({n} nodes/interval) "
        f"at shift {shift:.6g} m; worst disagreement at x = {worst_x:.6g} m",
        last_estimate=last, previous_estimate=prev, worst_x_m=worst_x,
        shift_m=shift, history=tuple(history))


def _washout_tilts(theta_rad: float, n_tilts: int) -> np.ndarray:
    """Tilts uniform in [-theta, theta]; just the untilted one at theta 0
    or for a single tilt."""
    if theta_rad < 0.0:
        raise ValueError("theta_rad must be >= 0")
    if n_tilts < 1 or n_tilts % 2 == 0:
        raise ValueError("n_tilts must be a positive odd count")
    if theta_rad == 0.0 or n_tilts == 1:
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
    the average is normalized once by its own peak.  The average is taken
    over the tilts' coherent modes (:func:`_coherent_modes`), in column
    blocks sized from ``_BLOCK_BYTES``; ``meta`` records their count as
    ``washout_modes`` and the truncation bound on the summed intensity as
    ``washout_truncation_bound``.

    The absolute peak intensity is recorded in ``meta['peak_abs']``.
    """
    if quad is None:
        quad = QuadratureSpec()
    x = grid.x()
    shifts = geom.screen_distance_m * np.sin(_washout_tilts(theta_rad,
                                                            n_tilts))
    modes, bound = None, 0.0
    if shifts.size > 1:
        modes, bound = _coherent_modes(beam, apertures, geom, shifts,
                                       quad.nodes_per_interval)
    columns = shifts.size if modes is None else modes.shape[1]
    width = max(1, _BLOCK_BYTES // (_COMPLEX_BYTES * x.size))
    intensity = np.zeros(x.size)
    for block in np.array_split(np.arange(columns), -(-columns // width)):
        # Later blocks converge against the peak of the modes before them.
        intensity += np.sum(np.abs(fraunhofer_amplitude(
            beam, apertures, geom, x, quad, shifts_m=shifts,
            modes=None if modes is None else modes[:, block],
            min_scale=math.sqrt(np.max(intensity) / shifts.size))) ** 2,
            axis=1)
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
            "washout_modes": columns,
            "washout_truncation_bound": bound,
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
