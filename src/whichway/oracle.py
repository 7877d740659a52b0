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
low numerical rank (5 to 8 at the paper's angles, out of 101 tilts), so a
washout integrates a few mode columns instead of one column per tilt.  The
tilts are symmetric by construction, theta (j / h) for j = -h..h, and so are
the shifts, so V = B T^H for the real basis
B = [1, sqrt2 cos(k xi s_j), sqrt2 sin(k xi s_j)] (j > 0) and a unitary T.
One real SVD B = U S Z^T on a fixed proxy set of nodes gives the mode
weights Z (:func:`_coherent_modes`), and each level takes its mode phases
V W = B Z on its own nodes, so the mode columns are the same functions at
every refinement level and refine like amplitudes.  A group's power, in
units of a power of two so that it does not underflow (:func:`_add_power`),
gives its convergence scale and the washout's sum.  The plain amplitude is
the washout of one tilt, no shifts and Z = [[1]].  The :class:`ColumnGroup`
records of one call share each level's beam samples and kernel tables but
converge each on its own, so each keeps the bits of its own call.  The
modes are taken in blocks of columns sized from ``_BLOCK_BYTES``, so memory
does not grow with tilt or mode counts.

The screen grid is evenly spaced, so a kernel row factors into the row at
its block's first point times a row of a small step table,
exp(-i k x_{a+r} xi) = exp(-i k x_a xi) exp(-i k r dx xi), with blocks of
about sqrt(N) rows; the step table is capped at ``_BLOCK_BYTES``, which
caps the rows per block.  Both tables are geometric in their index, so each
is again a coarse table times a fine one of about N^(1/4) rows
(:func:`_kernel_factors`): a level takes about 4 N^(1/4) complex
exponentials per node, and one complex product per table entry, instead of
N.  A level holds its columns column-major, each padded to whole blocks,
and takes the blocks in spans whose anchor rows and their product with one
column fit in ``_GROUP_BYTES``: the span's anchor rows from their two
tables, then for each column one product with them and one gemm with the
step table, which writes that column's rows of the span in place.  A
column's gemms have the same shapes whatever the other columns are, so its
bits do not depend on them.

The canonical plate is mirror-symmetric.  A real aperture field (no
aperture phase; a Gaussian, a Bessel or an untilted plane-wave beam) has a
Hermitian far field, C(-x) = conj C(x), and so has every mode column, whose
phases B Z are real: on a grid with x[0] == -x[-1], :func:`oracle_patterns`
integrates only x >= 0 and mirrors the even intensity.

A spot narrower than the node spacing may light no node of a level; two
such zero estimates agree, so the refinement converges on a dark pattern,
which :func:`_converges_on_zeros` predicts from the beam samples alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .analytic import IntensityPattern
from .beam import (BeamProfile, BesselBeam, GaussianBeam, PlaneWave,
                   amplitude_at)
from .geometry import SlitGeometry
from .specs import (PEAK_SINGLE_SLIT, ConvergenceError, GridSpec,
                    QuadratureSpec)

# Working-set budget for one block of kernel rows and for one block of
# washout columns (complex128 entries of 16 bytes each).
_BLOCK_BYTES = 4 << 20
# Budget for the anchor rows of one span of kernel row blocks and their
# product with one column; small enough to stay in cache.  Not _BLOCK_BYTES,
# which also splits the washout into blocks of mode columns, and with them
# the summed output bits.
_GROUP_BYTES = 256 << 10
_COMPLEX_BYTES = 16
# Screen points may deviate from x_0 + j dx by this many ulps of the grid's
# largest magnitude: a linspace is exact to about one, a mirrored
# (:meth:`GridSpec.x`) or shifted one to two.
_EVEN_SPACING_ULPS = 8
# A washout keeps the coherent modes with sigma_r > _MODE_CUTOFF * sigma_1,
# sigma_r^2 > eps sigma_1^2 for eps = 2^-52 (:func:`_coherent_modes`).
_MODE_CUTOFF = 2.0 ** -26


class DarkPatternError(ValueError):
    """The oracle pattern is identically zero: the beam lights no quadrature
    node in the open slits."""


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


@dataclass(frozen=True, eq=False)
class ColumnGroup:
    """One column group of :func:`fraunhofer_amplitude`, checked: positive
    shifts ``positive_m`` (1-D, finite), real mode weights ``modes``, a
    (2 len(positive_m) + 1, R) array Z from :func:`_coherent_modes`, and a
    floor ``min_scale`` (finite, >= 0) on the group's convergence scale.
    Its R columns are a washout's coherent-mode columns C = A W over the
    shifts s = [-positive_m[::-1], 0, positive_m], where A_j is the
    amplitude at x - s_j and W = T Z; each level takes their phases V W as
    B Z (:func:`_mode_phases`).  The defaults, no shifts and Z = [[1.0]],
    are the plain group: the washout of one tilt, the amplitude itself."""

    positive_m: np.ndarray = ()
    modes: np.ndarray = ((1.0,),)
    min_scale: float = 0.0

    def __post_init__(self) -> None:
        positive = np.asarray(self.positive_m, dtype=float)
        modes = np.asarray(self.modes)
        if positive.ndim != 1 or not np.all(np.isfinite(positive)):
            raise ValueError("positive_m must be finite and 1-D")
        if modes.ndim != 2 or modes.shape[0] != 2 * positive.size + 1 \
                or not np.isrealobj(modes):
            raise ValueError("modes must be real, 2 len(positive_m) + 1 rows")
        if not (isinstance(self.min_scale, numbers.Real)
                and 0.0 <= self.min_scale < math.inf):
            raise ValueError("min_scale must be finite and >= 0")
        object.__setattr__(self, "positive_m", positive)
        object.__setattr__(self, "modes", modes)


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


def _basis(k_screen: float, xi: np.ndarray, positive: np.ndarray
           ) -> np.ndarray:
    """The real basis B = [1, sqrt2 cos(k xi s_j), sqrt2 sin(k xi s_j)]
    (j > 0), one row per node, of the phases exp(i k xi s) over the
    antisymmetric shifts s = [-positive[::-1], 0, positive]."""
    phase = k_screen * np.outer(xi, positive)
    root2 = math.sqrt(2.0)
    return np.hstack((np.ones((xi.size, 1)), root2 * np.cos(phase),
                      root2 * np.sin(phase)))


def _mode_phases(k_screen: float, xi: np.ndarray, positive: np.ndarray,
                 weights: np.ndarray) -> np.ndarray:
    """(B Z)^T for the basis B of :func:`_basis` and weights Z, one column
    per node, built in blocks of nodes so that no block of B outgrows
    ``_BLOCK_BYTES``."""
    out = np.empty((weights.shape[1], xi.size))
    nodes = max(1, _BLOCK_BYTES // (_COMPLEX_BYTES * weights.shape[0]))
    for start in range(0, xi.size, nodes):
        basis = _basis(k_screen, xi[start:start + nodes], positive)
        out[:, start:start + nodes] = (basis @ weights).T
    return out


def _kernel_table(a: np.ndarray, b: np.ndarray, k_screen: float
                  ) -> np.ndarray:
    """The kernel entries exp(-i k a_j b_m) of every pair, one row per a_j,
    taken in place."""
    table = np.multiply.outer(a, b) * (-1j * k_screen)
    return np.exp(table, out=table)


def _factored_rows(coarse: np.ndarray, fine: np.ndarray, first: int,
                   out: np.ndarray) -> None:
    """Rows m = first, first + 1, ... of a factored table into ``out``: row
    m = c h + f is coarse[c] * fine[f], for h = len(fine)."""
    h, last = len(fine), first + len(out)
    for c in range(first // h, -(-last // h)):
        start, stop = max(first, c * h), min(last, c * h + h)
        np.multiply(coarse[c], fine[start - c * h:stop - c * h],
                    out=out[start - first:stop - first])


def _kernel_factors(x: np.ndarray, xi: np.ndarray, k_screen: float,
                    rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The step table exp(-i k r dx xi) for r = 0..rows-1, one row per
    node, and the coarse and fine tables (:func:`_factored_rows`) of the
    anchor rows exp(-i k x[b rows] xi) of the blocks b of ``rows`` points.

    Each table is a coarse one times a fine one of about sqrt entries:
    step r = u g + v is step u g times step v, and block b = c h + f's
    anchor row is the row at the grid's own x[c h rows] times the step
    f h rows, for g and h the ceiling square roots of the row and block
    counts.  That takes about 4 N^(1/4) exponentials per node instead of
    the 2 sqrt(N) of direct tables.
    """
    dx = (x[-1] - x[0]) / (x.size - 1) if x.size > 1 else 0.0
    blocks = -(-x.size // rows)
    g, h = math.isqrt(rows - 1) + 1, math.isqrt(blocks - 1) + 1
    # Built one step per row; the gemm takes its transpose as it stands.
    steps = np.empty((rows, xi.size), dtype=complex)
    _factored_rows(_kernel_table(np.arange(0, rows, g) * dx, xi, k_screen),
                   _kernel_table(np.arange(g) * dx, xi, k_screen), 0, steps)
    return (steps.T, _kernel_table(x[::h * rows], xi, k_screen),
            _kernel_table(np.arange(0, h * rows, rows) * dx, xi, k_screen))


def _amplitude_fixed(beam: BeamProfile, apertures: ApertureSet,
                     geom: SlitGeometry, x: np.ndarray, n: int,
                     groups: list[ColumnGroup]) -> np.ndarray:
    """Single-pass columns with exactly n Gauss-Legendre nodes per interval
    on the evenly spaced points ``x``, for the :class:`ColumnGroup` records
    ``groups``: each column of a group's real weights Z is the amplitude
    with the phases (B Z)^T of :func:`_mode_phases` over the shifts
    [-positive_m[::-1], 0, positive_m].  The groups share the beam
    samples and the kernel tables; the columns are held column-major, each
    padded to whole blocks of rows, and the (points x columns) result, the
    groups' columns in order, is a view of them.
    """
    k_screen = 2.0 * math.pi / (geom.wavelength_m * geom.screen_distance_m)
    xi, node_weights = _aperture_nodes(apertures, n)
    field = amplitude_at(beam, xi, geom.wavelength_m) * node_weights
    f = np.vstack([field * _mode_phases(k_screen, xi, group.positive_m,
                                        group.modes) for group in groups])

    # Block of rows r = 0..rows-1 from x[a]: kernel = anchor row * steps.
    rows = min(math.isqrt(x.size - 1) + 1,
               max(1, _BLOCK_BYTES // (_COMPLEX_BYTES * xi.size)))
    blocks = -(-x.size // rows)
    steps, coarse, fine = _kernel_factors(x, xi, k_screen, rows)
    amp = np.empty((f.shape[0], blocks, rows), dtype=complex)
    # A span of blocks takes its anchor rows from the two anchor tables;
    # then one gemm per column, of those rows times the column, writes that
    # column's rows of the span.
    span = max(1, _GROUP_BYTES // (2 * _COMPLEX_BYTES * xi.size))
    anchor_rows = np.empty((min(span, blocks), xi.size), dtype=complex)
    anchored = np.empty_like(anchor_rows)
    for first in range(0, blocks, span):
        last = min(first + span, blocks)
        anchors, left = anchor_rows[:last - first], anchored[:last - first]
        _factored_rows(coarse, fine, first, anchors)
        for column, out in zip(f, amp):
            np.multiply(anchors, column, out=left)
            np.matmul(left, steps, out=out[first:last])
    return amp.reshape(f.shape[0], -1)[:, :x.size].T


def _coherent_modes(beam: BeamProfile, apertures: ApertureSet,
                    geom: SlitGeometry, positive: np.ndarray,
                    quad: QuadratureSpec) -> tuple[np.ndarray, float]:
    """Real mode weights Z (2 positive.size + 1 by R) of a washout over the
    shifts s = [-positive[::-1], 0, positive], and its truncation bound.

    On a proxy of n nodes per interval, V = exp(i k xi s) is B T^H for the
    real basis B of :func:`_basis` and a unitary T, so one real SVD
    B = U S Z^T gives V's sigma and its modes W = T Z, with V W = B Z = U S.
    The kept modes are those with sigma_r > ``_MODE_CUTOFF`` sigma_1, that
    is sigma_r^2 > eps sigma_1^2: the washout weighs mode r by sigma_r^2, so
    a dropped mode carries less power than one rounding unit of the first.
    While R fills the proxy (and is short of the shift count), the proxy is
    too coarse and climbs ``quad.levels``; on the top level a full R spans
    the tilt phases on the finest nodes the kernel integrates.  The bound is
    sigma_{R+1}^2 sum |f|^2 over the proxy nodes, 0 when no mode is dropped.
    An SVD gives sigma_{R+1} only to about eps sigma_1, a relative error of
    at least eps / _MODE_CUTOFF = 1.5e-8 below the cutoff, so only the
    bound's leading digits are meaningful.
    """
    k_screen = 2.0 * math.pi / (geom.wavelength_m * geom.screen_distance_m)
    for n in quad.levels:
        xi, weights = _aperture_nodes(apertures, n)
        _, sigma, zt = np.linalg.svd(_basis(k_screen, xi, positive),
                                     full_matrices=False)
        rank = int(np.count_nonzero(sigma > _MODE_CUTOFF * sigma[0]))
        if rank < xi.size or rank == zt.shape[1]:
            break
    bound = 0.0
    if rank < sigma.size:
        f = amplitude_at(beam, xi, geom.wavelength_m) * weights
        bound = float(sigma[rank] ** 2 * np.sum(np.abs(f) ** 2))
    return zt[:rank].T, bound


def _worst_shift(delta: np.ndarray, modes: np.ndarray
                 ) -> tuple[int, np.ndarray]:
    """Index j into the shifts [-positive[::-1], 0, positive] of the largest
    shifted column delta W_j^*, built in blocks of rows, and W_j, for
    W = T Z: W_0 = Z_0 and W_{+-j} = (Z_cj -+ i Z_sj) / sqrt2."""
    half, root2 = modes.shape[0] // 2, math.sqrt(2.0)
    cos, sin = modes[1:half + 1], modes[half + 1:]
    shift_weights = np.vstack((((cos + 1j * sin) / root2)[::-1], modes[:1],
                               (cos - 1j * sin) / root2))
    to_shifts = shift_weights.conj().T
    rows = max(1, _BLOCK_BYTES // (_COMPLEX_BYTES * to_shifts.shape[1]))
    largest = np.zeros(to_shifts.shape[1])
    for start in range(0, delta.shape[0], rows):
        block = np.abs(delta[start:start + rows] @ to_shifts)
        np.maximum(largest, np.max(block, axis=0), out=largest)
    worst = int(np.argmax(largest))
    return worst, shift_weights[worst]


def _add_power(power: np.ndarray, cols: np.ndarray, unit: float) -> np.ndarray:
    """Adds sum_r (|C_r| / unit)^2 over the columns C_r to ``power``."""
    for c in cols.T:
        power += (np.abs(c) / unit) ** 2
    return power


def _converges_on_zeros(beam: BeamProfile, apertures: ApertureSet,
                        wavelength_m: float, quad: QuadratureSpec,
                        n_shifts: int) -> bool:
    """Whether :func:`fraunhofer_amplitude` converges on zero estimates in
    every group over at most ``n_shifts`` shifts whose min_scale is 0 (a
    washout's later blocks have 0 too once its first block is zero).

    The beam times the node weights is sampled on ``quad.levels`` in order.
    Two unlit levels in a row give two zero estimates, which agree: True.
    Zeros after a lit level agree with its estimate when the level is
    faint.  The unlit level's scale is 1, and a lit column sums each node's
    field times a unit-modulus kernel and its mode phase (B Z; rows of B
    have norm sqrt(S), columns Z unit norm), so it is at most sqrt(S) times
    the level's sum of |field * weight|; a sum of at most
    ``relative_tolerance`` / sqrt(``n_shifts``) gives True.  Two lit levels
    in a row, where the estimates may converge on a pattern, or the end of
    the levels give False.  The walk ignores the kernel's phases, so the
    oracle may still converge on zeros where it gives False.
    """
    faint_sum = quad.relative_tolerance / math.sqrt(n_shifts)
    previous = faint = None  # the previous level: lit, and lit but faint
    for n in quad.levels:
        xi, weights = _aperture_nodes(apertures, n)
        field = amplitude_at(beam, xi, wavelength_m) * weights
        lit = bool(np.any(field))
        if lit == previous or faint:
            return not lit
        previous = lit
        faint = lit and float(np.sum(np.abs(field))) <= faint_sum
    return False


def fraunhofer_amplitude(beam: BeamProfile, apertures: ApertureSet,
                         geom: SlitGeometry, x_m,
                         quad: QuadratureSpec | None = None, groups=None):
    """Far-field amplitude at screen coordinate(s) ``x_m``; the amplitude
    at a moved point x - s is this function at ``x_m - s``.

    ``groups`` is a sequence of :class:`ColumnGroup` records, and the
    result a list of one (columns, power, u) per group: the (x, R) columns
    C_r, their power sum_r (|C_r| / u)^2 and the power of two u with
    max |C_0| / u in [0.5, 1), or 1 if none.  Without ``groups`` the plain
    group alone gives a complex scalar for a scalar ``x_m``, else a 1-D array.

    The groups share one pass per level: one set of beam samples and
    kernel tables serves all their columns.  A group's node count doubles
    until every column agrees with its previous estimate to
    ``quad.relative_tolerance`` of one scale, u sqrt(max_x power /
    n_shifts) raised to at least min_scale: the largest amplitude of the
    plain group, and the root of a washout's peak when W has orthonormal
    columns spanning the tilts (min_scale lets a group that holds only some
    of the modes use the peak of the others).  A group that has converged
    keeps that level's columns and leaves the later levels; a column's
    kernel gemms do not depend on the other columns, so each group's bits
    are those of a call of it alone.  Otherwise this raises
    :class:`ConvergenceError` for the first group that failed, as a call of
    it alone would.

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
    plain = groups is None
    groups = [ColumnGroup()] if plain else list(groups)

    def result(done: list[tuple[np.ndarray, np.ndarray, float]]):
        if not plain:
            return done
        amp = done[0][0][:, 0]
        return complex(amp[0]) if np.ndim(x_m) == 0 else amp

    # Empty groups are done at once; the others refine.
    done = [None if x.size and group.modes.shape[1]
            else (np.zeros((x.size, group.modes.shape[1]), dtype=complex),
                  np.zeros(x.size), 1.0)
            for group in groups]
    active = [g for g, entry in enumerate(done) if entry is None]
    if not active:
        return result(done)

    def level(n: int) -> list[np.ndarray]:
        """One pass of the groups still refining, one view per group."""
        amp = _amplitude_fixed(beam, apertures, geom, x, n,
                               [groups[g] for g in active])
        widths = [groups[g].modes.shape[1] for g in active]
        return np.split(amp, np.cumsum(widths)[:-1], axis=1)

    # Columns are compared one at a time so no temporary grows with their
    # count; besides the converged groups' columns, at most two whole
    # estimates (prev, cur) are alive at once.
    cur = level(quad.levels[0])
    history = [[] for _ in groups]
    for n in quad.levels[1:]:
        prev, cur = cur, level(n)
        refining = []
        for g, c, p in zip(active, cur, prev):
            rows = groups[g].modes.shape[0]
            diff = np.max([np.max(np.abs(a - b)) for a, b in zip(c.T, p.T)])
            unit = math.ldexp(0.5, math.frexp(np.max(np.abs(c[:, 0])))[1])
            power = _add_power(np.zeros(x.size), c, unit)
            scale = max(unit * math.sqrt(np.max(power) / rows),
                        groups[g].min_scale) or 1.0
            if diff <= quad.relative_tolerance * scale:
                done[g] = c, power, unit
            else:
                history[g].append((n, float(diff) / float(scale)))
                refining.append((g, c, p))
        if not refining:
            return result(done)
        active, cur, prev = (list(t) for t in zip(*refining))

    # The first group that failed; one common scale over its columns, so
    # the worst shift has the largest |diff|.
    g, cur, prev = active[0], cur[0], prev[0]
    positive = groups[g].positive_m
    worst, shift_weights = _worst_shift(cur - prev, groups[g].modes)
    last, prev = cur @ shift_weights.conj(), prev @ shift_weights.conj()
    worst_x = float(x[int(np.argmax(np.abs(last - prev)))])
    shift = float(np.concatenate((-positive[::-1], [0.0], positive))[worst])
    raise ConvergenceError(
        f"quadrature did not converge to {quad.relative_tolerance:.1e} "
        f"after {quad.max_refinements} refinements ({n} nodes/interval) "
        f"at shift {shift:.6g} m; worst disagreement at x = {worst_x:.6g} m",
        last_estimate=last, previous_estimate=prev, worst_x_m=worst_x,
        shift_m=shift, history=tuple(history[g]))


def tilt_angles(theta_rad: float, n_tilts: int) -> np.ndarray:
    """Tilts theta (j / h), j = -h..h, uniform in [-theta, theta] and
    antisymmetric bit for bit, with 0.0 in the middle and +-theta at the
    ends; just the untilted one at theta 0 or for a single tilt.  Every
    tilt is in (-pi/2, pi/2), as a plane wave's must be."""
    if not 0.0 <= theta_rad < 0.5 * math.pi:
        raise ValueError("theta_rad must be finite and >= 0, below pi/2")
    if n_tilts < 1 or n_tilts % 2 == 0:
        raise ValueError("n_tilts must be a positive odd count")
    if theta_rad == 0.0 or n_tilts == 1:
        return np.zeros(1)
    half = n_tilts // 2
    return theta_rad * (np.arange(-half, half + 1) / half)


def oracle_pattern(beam: BeamProfile, apertures: ApertureSet,
                   geom: SlitGeometry, grid: GridSpec,
                   quad: QuadratureSpec | None = None,
                   theta_rad: float = 0.0,
                   n_tilts: int = 101) -> IntensityPattern:
    """|amplitude|^2 on a grid, normalized to its own peak, washed out over
    ``n_tilts`` tilts in [-theta, theta] when ``theta_rad`` > 0: the
    one-spread case of :func:`oracle_patterns`."""
    return oracle_patterns(beam, apertures, geom, grid, quad, (theta_rad,),
                           n_tilts)[0]


def oracle_patterns(beam: BeamProfile, apertures: ApertureSet,
                    geom: SlitGeometry, grid: GridSpec,
                    quad: QuadratureSpec | None = None,
                    thetas_rad=(0.0,), n_tilts: int = 101
                    ) -> list[IntensityPattern]:
    """One pattern per angular spread in ``thetas_rad``, on one beam,
    aperture set and grid: |amplitude|^2, normalized to its own peak.

    With theta > 0 the pattern is washed out over ``n_tilts`` (odd)
    illumination tilts uniform in [-theta, theta]: a tilt t shifts the far
    field by D sin t, the members' absolute intensities are averaged, and
    the average is normalized once by its own peak.  The average is taken
    over the tilts' coherent modes (:func:`_coherent_modes`), in column
    blocks sized from ``_BLOCK_BYTES``; ``meta`` records their count as
    ``washout_modes`` and the truncation bound on the summed intensity as
    ``washout_truncation_bound``, of which only the leading digits are
    meaningful (:func:`_coherent_modes`).  The absolute peak
    intensity is recorded in ``meta['peak_abs']``; it underflows to 0 for a
    field below about 1e-162, the pattern does not.

    The first block of every spread (all of a plain pattern) is one column
    group of a single :func:`fraunhofer_amplitude` call, which builds each
    level's beam samples and kernel tables once for all of them; a spread's
    later blocks converge against the peak of the blocks before them, one
    call each, and add their power to the first block's, in its unit.  So
    each pattern has the bits of its own call, and a joint failure is the
    first spread's whose first block does not converge.

    When every aperture phase is 0, the beam is real (a Gaussian, a Bessel
    beam or an untilted plane wave) and the grid has x[0] == -x[-1], the
    calls integrate only the points x[x.size // 2:], which are x >= 0, and
    the even intensity is mirrored onto the others: :meth:`GridSpec.x`
    mirrors such a grid bit for bit, so they are exactly -x of the
    integrated points (and an odd grid's middle point is 0).  A failure of
    such a call then names one of the integrated points, and
    its estimates cover those x.size - x.size // 2 points.  The mode column
    blocks are still sized from the whole grid, so a washout sums the same
    blocks folded or not.
    """
    if quad is None:
        quad = QuadratureSpec()
    x = grid.x()
    width = max(1, _BLOCK_BYTES // (_COMPLEX_BYTES * x.size))
    # A real field's far field and its mode columns are Hermitian: fold.
    real = not any(apertures.phases_rad) and (
        isinstance(beam, (GaussianBeam, BesselBeam))
        or isinstance(beam, PlaneWave) and not beam.tilt_rad)
    cut = x.size // 2 if real and x[0] == -x[-1] else 0
    integrated = x[cut:]
    spreads = []
    for theta_rad in thetas_rad:
        # D sin t of the positive tilts; the washout mirrors them,
        # s_{-j} = -s_j.
        tilts = tilt_angles(theta_rad, n_tilts)
        positive = geom.screen_distance_m * np.sin(tilts[tilts.size // 2 + 1:])
        group, bound = ColumnGroup(), 0.0
        if positive.size:
            modes, bound = _coherent_modes(beam, apertures, geom, positive,
                                           quad)
            group = ColumnGroup(positive, modes)
        columns = group.modes.shape[1]
        blocks = np.array_split(np.arange(columns), -(-columns // width))
        spreads.append((theta_rad, tilts.size, group, bound, blocks))
    firsts = fraunhofer_amplitude(
        beam, apertures, geom, integrated, quad,
        groups=[replace(group, modes=group.modes[:, blocks[0]])
                for _, _, group, _, blocks in spreads])

    patterns = []
    for (theta_rad, count, group, bound, blocks), (_, intensity, unit) \
            in zip(spreads, firsts):
        for block in blocks[1:]:
            floor = unit * math.sqrt(np.max(intensity) / count)
            [(amp, _, _)] = fraunhofer_amplitude(
                beam, apertures, geom, integrated, quad, groups=[replace(
                    group, modes=group.modes[:, block], min_scale=floor)])
            _add_power(intensity, amp, unit)
        intensity = np.concatenate((intensity[::-1][:cut], intensity)) / count
        peak = float(np.max(intensity))
        if peak <= 0.0:
            raise DarkPatternError("oracle pattern is identically zero")
        meta = {"model": "oracle", "geometry": geom, "unit_scale": 1.0,
                "peak_abs": peak * unit * unit, "beam": type(beam).__name__}
        if theta_rad > 0.0:
            meta.update(washout_theta_rad=theta_rad, washout_tilts=n_tilts,
                        washout_modes=group.modes.shape[1],
                        washout_truncation_bound=bound,
                        model="washout(oracle)")
        patterns.append(IntensityPattern(x_m=x, intensity=intensity / peak,
                                         normalization=PEAK_SINGLE_SLIT,
                                         meta=meta))
    return patterns


def washout_pattern(base: Callable[[float], IntensityPattern],
                    theta_rad: float, n_tilts: int = 101) -> IntensityPattern:
    """Incoherent average of ``base(tilt)`` over tilts uniform in [-theta, theta].

    ``base`` must return patterns on one fixed grid; a tilted plane wave
    shifts the far-field pattern by D * sin(tilt), so averaging models an
    angular spread of illumination directions.  ``n_tilts`` must be odd so
    the untilted member is included.  The oracle's own washout is
    :func:`oracle_pattern` with ``theta_rad`` > 0.
    """
    tilts = tilt_angles(theta_rad, n_tilts)
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
