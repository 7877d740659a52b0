"""Declarations that need no arrays: model kinds, normalization names, the
grid and its step rule, the quadrature settings, the oracle's convergence
error, the divergence record and the duality bookkeeping.

A config parse, ``check``'s plate rules and the ``mzi`` reports use only
these, so this module imports no numpy; :mod:`whichway.analytic`,
:mod:`whichway.oracle` and :mod:`whichway.metrics` import them from here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

PEAK_SINGLE_SLIT = "peak_single_slit"
UNIT_INTEGRAL = "unit_integral"
NORMALIZATIONS = (PEAK_SINGLE_SLIT, UNIT_INTEGRAL)

PREDICTABILITY = "predictability"
DISTINGUISHABILITY = "distinguishability"

# Slack used when flagging duality-sum violations; keeps exact saturation
# (P^2 + V^2 == 1) on the satisfied side of the fence.
DUALITY_TOLERANCE = 1e-9
# A pattern's grid steps may differ from their mean by this fraction of it.
_STEP_RTOL = 1e-9


class ModelKind(enum.Enum):
    SINGLE_SLIT_A = "single_slit_a"
    EMPTY_WAVE_A = "empty_wave_a"
    EMPTY_WAVE_B = "empty_wave_b"
    EMPTY_WAVE_SUM = "empty_wave_sum"
    STANDARD_TWO_SLIT = "standard_two_slit"
    STANDARD_FOCUSED_A = "standard_focused_a"
    PURE_FRINGE = "pure_fringe"
    GENERAL_TWO_SLIT = "general_two_slit"


@dataclass(frozen=True)
class GridSpec:
    """Uniform screen grid: ``points`` samples spanning [x_min, x_max]."""

    x_min_m: float
    x_max_m: float
    points: int = 4001

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x_min_m) and math.isfinite(self.x_max_m)):
            raise ValueError("grid bounds must be finite")
        if self.x_min_m >= self.x_max_m:
            raise ValueError("grid requires x_min_m < x_max_m")
        if self.points < 2:
            raise ValueError("grid requires at least 2 points")

    def x(self) -> np.ndarray:
        """The ``points`` evenly spaced x from x_min to x_max, a linspace.

        A window symmetric about 0 (x_min == -x_max) gives an odd column
        bit for bit: the upper half x[n - n // 2:] is the linspace's, each
        lower point x[i], i < n // 2, is -x[n-1-i], and an odd count's
        middle point x[n // 2] is 0.0.  So the even models and the folded
        oracle are exact mirror images on it, and its CSV cells are
        formatted from the upper half
        (:func:`~whichway._floattext.column_cells`)."""
        import numpy as np
        x = np.linspace(self.x_min_m, self.x_max_m, self.points)
        if self.x_min_m == -self.x_max_m:
            half = self.points // 2
            x[:half] = -x[::-1][:half]
            if self.points % 2:
                x[half] = 0.0
        return x

    def check_points(self) -> None:
        """Raise ValueError unless :meth:`x` is strictly increasing and evenly
        spaced, as :class:`~whichway.analytic.IntensityPattern` requires."""
        _check_steps(self.x())

    @property
    def spacing_m(self) -> float:
        return (self.x_max_m - self.x_min_m) / (self.points - 1)


def _check_steps(x: np.ndarray) -> None:
    """Raise ValueError unless the points ``x`` (two or more) are strictly
    increasing and their steps agree to ``_STEP_RTOL`` of the mean step.
    Array methods, not numpy functions, keep numpy out of this module."""
    steps = x[1:] - x[:-1]
    if (steps <= 0.0).any():
        raise ValueError("x_m must be strictly increasing")
    mean_step = (x[-1] - x[0]) / (x.size - 1)
    if abs(steps - mean_step).max() > _STEP_RTOL * abs(mean_step):
        raise ValueError("x_m must be uniformly spaced")


# leggauss(n) takes the eigenvalues of an n x n companion matrix: 128 MiB
# of float64 at the largest starting node count.
MAX_NODES_PER_INTERVAL = 2 ** 12
# The most nodes per interval a refinement budget may reach: that of the
# deepest golden item, 128 nodes doubled 6 times.  Each further doubling
# costs about 8x the time and 4x the memory.
MAX_BUDGET_NODES = 2 * MAX_NODES_PER_INTERVAL


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre settings: starting nodes per interval, relative
    agreement target between refinements, and how many doublings to try.

    The rule converges geometrically on a smooth slit field, so on the
    README plate 16 nodes are already a reference the 32-node level is
    accepted against; a washout's mode proxy climbs the same ``levels``."""

    nodes_per_interval: int = 16
    relative_tolerance: float = 1e-12
    max_refinements: int = 6

    def __post_init__(self) -> None:
        if not 8 <= self.nodes_per_interval <= MAX_NODES_PER_INTERVAL:
            raise ValueError("nodes_per_interval must be in "
                             f"[8, {MAX_NODES_PER_INTERVAL}]")
        if not (0.0 < self.relative_tolerance < 1.0):
            raise ValueError("relative_tolerance must lie in (0, 1)")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be >= 1")
        if not _within_budget(self.nodes_per_interval, self.max_refinements):
            raise ValueError("nodes_per_interval * 2^max_refinements must be "
                             f"<= {MAX_BUDGET_NODES}")

    @property
    def levels(self) -> tuple[int, ...]:
        """The start's nodes per interval doubled 0..max_refinements times."""
        return tuple(self.nodes_per_interval << k
                     for k in range(self.max_refinements + 1))


def _within_budget(nodes_per_interval: int, max_refinements: int) -> bool:
    """Whether nodes_per_interval * 2^max_refinements (max_refinements >= 0)
    is at most ``MAX_BUDGET_NODES``; 2^max_refinements is never formed."""
    return nodes_per_interval <= MAX_BUDGET_NODES >> max_refinements


class ConvergenceError(RuntimeError):
    """Quadrature refinement did not reach the requested tolerance.

    Carries, for the :class:`~whichway.oracle.ColumnGroup` of a
    :func:`~whichway.oracle.fraunhofer_amplitude` call that failed (the
    first, when several did), the last two estimates of its worst shift's
    column on the points the call integrated, rebuilt from the mode columns
    as C W^H (the plain group's one column is its own), that shift and the
    screen coordinate where they disagree most.  A call of
    :func:`~whichway.oracle.oracle_patterns` that folds the screen
    integrates only the x.size - x.size // 2 points x >= 0 of its grid, so
    it names one of those.  ``history`` holds that group's
    ``(nodes_per_interval, max |diff| / scale)`` pair per refinement level,
    the largest ratio over its columns at that level.
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


def predictability(p_slit_a: float, p_slit_b: float) -> float:
    """Which-way predictability |p_A - p_B| for path probabilities."""
    if p_slit_a < 0.0 or p_slit_b < 0.0:
        raise ValueError("path probabilities must be nonnegative")
    if abs(p_slit_a + p_slit_b - 1.0) > 1e-12:
        raise ValueError(
            f"path probabilities must sum to 1, got {p_slit_a + p_slit_b!r}")
    return abs(p_slit_a - p_slit_b)


@dataclass(frozen=True)
class PatternDivergence:
    l2_relative: float
    sup_relative: float
    visibility_gap: float


@dataclass(frozen=True)
class DualityReport:
    """A which-way measure paired with a visibility and their quadrature sum.

    ``which_way_kind`` distinguishes a-priori predictability P from
    marker-based distinguishability D; ``duality_sum`` is exactly
    which_way_value^2 + visibility^2.
    """

    which_way_kind: str
    which_way_value: float
    visibility: float
    duality_sum: float
    inequality_satisfied: bool
    meta: dict = field(default_factory=dict)


def duality_report(which_way_kind: str, which_way_value: float,
                   visibility: float, meta: dict | None = None) -> DualityReport:
    """Assemble a :class:`DualityReport`, validating the inputs."""
    if which_way_kind not in (PREDICTABILITY, DISTINGUISHABILITY):
        raise ValueError(f"unknown which-way kind {which_way_kind!r}")
    for name, value in (("which_way_value", which_way_value),
                        ("visibility", visibility)):
        if not (0.0 <= value <= 1.0):
            raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    total = which_way_value * which_way_value + visibility * visibility
    return DualityReport(
        which_way_kind=which_way_kind,
        which_way_value=which_way_value,
        visibility=visibility,
        duality_sum=total,
        inequality_satisfied=total <= 1.0 + DUALITY_TOLERANCE,
        meta=dict(meta) if meta else {},
    )
