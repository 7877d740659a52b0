"""Two-path interferometer duality bookkeeping.

The interferometer mirrors the two-slit logic with clean algebra: two path
amplitudes a (arm A) and b (arm B), a scanned relative phase, and one output
port.  Modes, named by their values (the ``mzi --mode`` names):

open       both arms open, nothing measured in between.
blocked    arm B absorbed; the detected particles all came via A.
marker     a which-way marker tags arm B; the cross term is erased.
knockout   arm-B events are vetoed after the fact: the cross term is kept
           for the surviving half of the particles.  This is the mode whose
           report combines full path knowledge with full fringe contrast.

Perfect coherence is assumed throughout; reports note this in their meta.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .specs import (DISTINGUISHABILITY, PREDICTABILITY, DualityReport,
                    duality_report)

_COHERENCE_NOTE = "assumes perfectly coherent, lossless paths"


class MziMode(enum.Enum):
    OPEN = "open"
    BLOCKED_B = "blocked"
    MARKER = "marker"
    KNOCKOUT_B = "knockout"


@dataclass(frozen=True)
class MziConfig:
    """Path amplitudes and operating mode."""

    amplitude_a: float
    amplitude_b: float
    mode: MziMode = MziMode.OPEN

    def __post_init__(self) -> None:
        a, b = self.amplitude_a, self.amplitude_b
        _check_amplitudes(a, b)
        if a * a + b * b > 1.0 + 1e-12:
            raise ValueError("amplitudes must satisfy a^2 + b^2 <= 1")
        if not isinstance(self.mode, MziMode):
            raise ValueError(f"unknown mode {self.mode!r}")


def output_intensity(cfg: MziConfig, phase_rad: float, port: int = 0) -> float:
    """Mean detection rate at an output port for a scanned phase.

    Port 0 combines the arms as (a + b e^{i phi}) / sqrt(2), port 1 with the
    opposite sign, so the two ports always account for a^2 + b^2 together.
    blocked detects only the a^2 stream (flat in phase); knockout keeps the
    interference of the open configuration at half the particle rate.
    """
    if port not in (0, 1):
        raise ValueError("port must be 0 or 1")
    a, b = cfg.amplitude_a, cfg.amplitude_b
    sign = 1.0 if port == 0 else -1.0
    cross = 2.0 * a * b * math.cos(phase_rad)
    if cfg.mode is MziMode.OPEN:
        return 0.5 * (a * a + b * b + sign * cross)
    if cfg.mode is MziMode.BLOCKED_B:
        return a * a if port == 0 else 0.0
    if cfg.mode is MziMode.MARKER:
        return 0.5 * (a * a + b * b)
    # knockout: open-style interference for half the events.
    return 0.25 * (a * a + b * b + sign * cross)


def mzi_duality(cfg: MziConfig) -> DualityReport:
    """Which-way value, fringe visibility, and their quadrature sum.

    open is :func:`asymmetric_duality`'s report.  In the other modes every
    detected particle has a known path: the which-way value is 1, of kind D
    for marker.  Visibility is the contrast of :func:`output_intensity` over
    the scanned phase, 2ab / (a^2 + b^2) for knockout and 0 otherwise.
    ``meta["detected_fraction"]`` is the share of launched particles that
    reach the detectors: a^2 / (a^2 + b^2) for blocked and knockout, else 1.
    """
    a, b = cfg.amplitude_a, cfg.amplitude_b
    if cfg.mode is MziMode.OPEN:
        return asymmetric_duality(a, b)
    if cfg.mode is MziMode.MARKER:
        kind, detected = DISTINGUISHABILITY, 1.0
    elif a == 0.0:
        raise ValueError(f"{cfg.mode.value} needs amplitude_a > 0")
    else:
        # blocked / knockout: every detected particle came via arm A.
        kind, detected = PREDICTABILITY, a * a / (a * a + b * b)
    visibility = _contrast(a, b) if cfg.mode is MziMode.KNOCKOUT_B else 0.0
    return duality_report(kind, 1.0, visibility, meta={
        "mode": cfg.mode.value, "detected_fraction": detected,
        "assumption": _COHERENCE_NOTE})


def asymmetric_duality(amplitude_a: float, amplitude_b: float) -> DualityReport:
    """Duality report for an open, unbalanced two-path configuration.

    P = |a^2 - b^2| / (a^2 + b^2) and V = 2ab / (a^2 + b^2) saturate
    P^2 + V^2 = 1 identically.
    """
    a, b = amplitude_a, amplitude_b
    _check_amplitudes(a, b)
    p = abs(a * a - b * b) / (a * a + b * b)
    return duality_report(PREDICTABILITY, p, _contrast(a, b), meta={
        "mode": "open", "detected_fraction": 1.0,
        "assumption": _COHERENCE_NOTE})


def _check_amplitudes(a: float, b: float) -> None:
    """Finite, >= 0, and a^2 + b^2 > 0 even where the squares underflow."""
    if not (math.isfinite(a) and math.isfinite(b) and a >= 0.0 and b >= 0.0):
        raise ValueError("amplitudes must be finite and >= 0")
    if a * a + b * b == 0.0:
        raise ValueError("amplitudes must satisfy a^2 + b^2 > 0")


def _contrast(a: float, b: float) -> float:
    """Fringe visibility 2ab / (a^2 + b^2) of two coherent paths, capped at 1
    against rounding."""
    return min(2.0 * a * b / (a * a + b * b), 1.0)
