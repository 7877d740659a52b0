"""Host speed probe, and item times corrected to one host speed.

The benchmark shares a few vCPUs of a host with other tenants.  While they
are busy the same code runs up to twice as slow, in episodes of seconds to
minutes, so the raw time of one attempt mixes the program's cost with the
host's load.  Between items (never during one) the worker times ``probe``, a
fixed piece of work made of what the program's items spend their time on:
interpreter bytecode, a complex exponential over an outer product with the
matrix-vector product that follows it, and float formatting.  An attempt's
*corrected* time is its raw time scaled by ``REFERENCE_PROBE_S`` over the
median probe time around it: the time the attempt would have taken at the
host speed where the probe takes ``REFERENCE_PROBE_S``.  The probe is part of
the benchmark, not of the program, so a change to the program moves the
corrected times exactly as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Probe at most this often; every item of at least this length is bracketed
# by two probes.
PROBE_EVERY_S = 0.5
# Probes this close to an attempt, before or after it, measure its speed.
PROBE_WINDOW_S = 1.0
# The probe's time on an idle 2-vCPU Intel Xeon guest with one BLAS thread.
# It only sets the scale of the corrected times.
REFERENCE_PROBE_S = 0.016

_X = np.linspace(-1.0, 1.0, 1001)
_XI = np.linspace(-1.0, 1.0, 64)
_F = np.ones(64, complex)


def probe() -> float:
    """Seconds taken by the fixed probe work."""
    start = time.perf_counter()
    acc = 0
    for i in range(100000):
        acc += i * i % 7
    for _ in range(4):
        np.exp(-30j * np.outer(_X, _XI)) @ _F
    ",".join("%.17g" % v for v in _X)
    return time.perf_counter() - start


def corrected(attempts: list[dict], probes: list[list[float]]) -> list[float]:
    """Each attempt's time at the reference host speed.

    ``attempts`` carry ``at`` (perf_counter at start) and ``seconds``;
    ``probes`` are ``(perf_counter at start, seconds)`` pairs in time order.
    The speed around an attempt is the median of the probes that start
    within PROBE_WINDOW_S of it, or of its two neighbours if none does."""
    starts = [p[0] for p in probes]
    out = []
    for a in attempts:
        lo = bisect.bisect_left(starts, a["at"] - PROBE_WINDOW_S)
        hi = bisect.bisect_right(starts, a["at"] + a["seconds"]
                                 + PROBE_WINDOW_S)
        near = [p[1] for p in probes[lo:hi]]
        if not near:
            i = bisect.bisect(starts, a["at"])
            near = [p[1] for p in probes[max(i - 1, 0):i + 1]]
        out.append(a["seconds"] * REFERENCE_PROBE_S / statistics.median(near))
    return out
