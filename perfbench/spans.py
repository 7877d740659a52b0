"""Span tracing from outside the program, and the per-layer metrics drawn
from the spans.

``Tracer.install`` replaces the public names that ``whichway.cli`` and
``whichway.oracle`` bind with wrappers that record one span per call: name,
start, end, parent span, item id and a few sizes read from the arguments.
Nothing in the program changes; ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name).  The module is where the caller looks the
# name up: cli.fraunhofer_amplitude serves the washout members and
# oracle.fraunhofer_amplitude serves oracle_pattern.
TARGETS = (
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "run_scenario", "cli.run_scenario"),
    ("cli", "sweep_scenario", "cli.sweep_scenario"),
    ("cli", "write_pattern_csv", "cli.write_pattern_csv"),
    ("cli", "write_summary_json", "cli.write_summary_json"),
    ("cli", "check_feasibility", "geometry.check_feasibility"),
    ("cli", "sample_pattern", "analytic.sample_pattern"),
    ("cli", "visibility_fringe_local", "metrics.visibility_fringe_local"),
    ("cli", "pattern_divergence", "metrics.pattern_divergence"),
    ("cli", "mzi_duality", "mzi.mzi_duality"),
    ("cli", "asymmetric_duality", "mzi.asymmetric_duality"),
    ("cli", "oracle_pattern", "oracle.oracle_pattern"),
    ("cli", "washout_pattern", "oracle.washout_pattern"),
    ("cli", "fraunhofer_amplitude", "oracle.fraunhofer_amplitude"),
    ("oracle", "fraunhofer_amplitude", "oracle.fraunhofer_amplitude"),
    ("oracle", "amplitude_at", "beam.amplitude_at"),
)
ITEM = "item"
WASHOUT_MEMBER = "oracle.washout_member"
KERNEL_ENTRY_BYTES = 16  # one complex128 kernel entry


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _sizes(name, args, kwargs, result, ok: bool) -> dict:
    """Work sizes of one call, read from its arguments or, when it
    returned normally, from its result or output file."""
    if name == "oracle.fraunhofer_amplitude":
        return {"points": int(np.size(_arg(args, kwargs, 3, "x_m")))}
    if name == "beam.amplitude_at":
        return {"nodes": int(np.size(_arg(args, kwargs, 1, "xi_m")))}
    if name == "analytic.sample_pattern" and ok:
        return {"points": int(result.x_m.size)}
    if name == "cli.write_pattern_csv" and ok:
        return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}
    return {}


class Tracer:
    """Keeps spans in memory; ``item`` labels the spans of the current item."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.item = None
        self._stack: list[int | None] = [None]
        self._installed: list[tuple] = []
        self._t0 = time.perf_counter()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)  # reserve the id; filled in below
            parent = self._stack[-1]
            self._stack.append(span_id)
            if name == "oracle.washout_pattern":
                # Each tilt member the washout averages is a child span.
                args = (self.wrap(WASHOUT_MEMBER, args[0]),) + args[1:]
            start = time.perf_counter()
            error = None
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span = {"id": span_id, "parent": parent, "item": self.item,
                        "name": name, "start": start - self._t0,
                        "end": end - self._t0}
                span.update(_sizes(name, args, kwargs, result,
                                   error is None))
                if error is not None:
                    span["error"] = error
                self.spans[span_id] = span
        return traced

    def install(self, modules: dict) -> None:
        for module, attr, name in TARGETS:
            original = getattr(modules[module], attr)
            self._installed.append((modules[module], attr, original))
            setattr(modules[module], attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()


def self_times(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds and self seconds (duration
    minus the time covered by direct children)."""
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0,
                                                "self_s": 0.0})
    for s in spans:
        row = out[s["name"]]
        duration = s["end"] - s["start"]
        row["calls"] += 1
        row["s"] += duration
        row["self_s"] += duration - child_time[s["id"]]
    return dict(out)


def work_counts(spans: list[dict]) -> dict[str, int]:
    """Exact counts of oracle and beam work, taken from span sizes.

    A kernel is one ``amplitude_at`` call inside a ``fraunhofer_amplitude``
    call: ``points x nodes`` complex entries.  The refinement levels of one
    ``fraunhofer_amplitude`` call are its distinct node counts minus one.
    """
    by_id = {s["id"]: s for s in spans}
    nodes_per_call = defaultdict(set)
    entries = samples = 0
    for s in spans:
        if s["name"] != "beam.amplitude_at":
            continue
        samples += s["nodes"]
        parent = by_id.get(s["parent"])
        if parent is not None and parent["name"] == "oracle.fraunhofer_amplitude":
            entries += parent["points"] * s["nodes"]
            nodes_per_call[parent["id"]].add(s["nodes"])
    return {
        "oracle.kernel_entries": entries,
        "oracle.kernel_bytes_computed": KERNEL_ENTRY_BYTES * entries,
        "oracle.refinement_levels": sum(len(n) - 1
                                        for n in nodes_per_call.values()),
        "oracle.washout_members": sum(s["name"] == WASHOUT_MEMBER
                                      for s in spans),
        "oracle.convergence_failures": sum(
            s["name"] == "oracle.fraunhofer_amplitude"
            and s.get("error") == "ConvergenceError" for s in spans),
        "beam.amplitude_at.samples": samples,
        "analytic.sample_pattern.points": sum(
            s["points"] for s in spans
            if s["name"] == "analytic.sample_pattern" and "points" in s),
        "cli.write_pattern_csv.bytes": sum(
            s["bytes"] for s in spans
            if s["name"] == "cli.write_pattern_csv" and "bytes" in s),
    }


# Per-layer metrics reported by a traced run, named <span name>.<quantity>
# with the quantity one of calls, s (inclusive) or self_s.  Every value is a
# total over the traced items divided by the item count.
LAYER_TIMES = (
    "oracle.fraunhofer_amplitude.calls",
    "oracle.fraunhofer_amplitude.self_s",
    "oracle.washout_pattern.self_s",
    "beam.amplitude_at.calls",
    "beam.amplitude_at.s",
    "analytic.sample_pattern.calls",
    "analytic.sample_pattern.s",
    "metrics.visibility_fringe_local.calls",
    "metrics.visibility_fringe_local.s",
    "metrics.pattern_divergence.s",
    "geometry.check_feasibility.s",
    "mzi.mzi_duality.calls",
    "mzi.mzi_duality.s",
    "cli.parse_config.s",
    "cli.run_scenario.s",
    "cli.sweep_scenario.s",
    "cli.write_pattern_csv.s",
    "cli.write_summary_json.s",
)


def layer_metrics(spans: list[dict]) -> tuple[dict[str, float], dict]:
    """Per-item layer metrics, plus the self-time table they came from."""
    table = self_times(spans)
    items = table[ITEM]
    n = items["calls"]
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    metrics = {}
    for name in LAYER_TIMES:
        span, quantity = name.rsplit(".", 1)
        metrics[name] = table.get(span, empty)[quantity] / n
    metrics.update({name: count / n
                    for name, count in work_counts(spans).items()})
    fraunhofer = table.get("oracle.fraunhofer_amplitude", empty)["s"]
    metrics["oracle.fraunhofer_amplitude.share"] = fraunhofer / items["s"]
    return metrics, table
