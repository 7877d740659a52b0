"""Closed-loop item runner; one fresh process per benchmark run.

Usage: python3 perfbench/worker.py PLAN.json RESULT.json

The plan (written by run.py) holds the item cycle, the source directory, the
measuring time and whether to trace.  Items are issued back-to-back, one at a
time, through ``whichway.cli.main`` with stdout captured.  Each item's outputs
are checked and then deleted outside its timed region.  The loop cycles
through the items for ``seconds`` of wall time and runs every item at least
once; between items it times the host speed probe (``hostspeed.py``) at most
every PROBE_EVERY_S.  Traced, it runs whole passes, so per-item work counts
are exact, and each traced pass is followed by the same pass untraced, which
gives the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy

from checks import check_item
from hostspeed import PROBE_EVERY_S, probe
from spans import ITEM, Tracer, layer_metrics


def attempt(main, item: dict, configs: Path, scratch: Path) -> dict:
    """Run one item through ``main``, time it, check and delete its outputs."""
    out = scratch / ("sweep.csv" if item["expect"]["kind"] == "sweep"
                     else "out")
    argv = [a.replace("{config}", str(configs / f"{item['id']}.cfg"))
             .replace("{out}", str(out)) for a in item["argv"]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # an escaped traceback is a failed item
            traceback.print_exc()
            code = None
        seconds = time.perf_counter() - start
    if code != 0:
        problems = [f"exit code {code}: {stderr.getvalue().strip()}"]
        digest = None
    else:
        problems, digest = check_item(item, stdout.getvalue(), out)
    if out.is_dir():
        shutil.rmtree(out)
    else:
        out.unlink(missing_ok=True)
    return {"id": item["id"], "at": start, "seconds": seconds, "exit": code,
            "problems": problems, "digest": digest}


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, plan["src"])
    from whichway import cli, oracle

    items = plan["items"]
    configs = Path(plan["configs"])
    scratch = Path(plan["scratch"])
    seconds = plan["seconds"]

    # Untimed warm-up: finishes lazy imports and first-call set-up.
    warm = next(i for i in items if i["config"] is not None)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["check", "--config", str(configs / f"{warm['id']}.cfg")])

    attempts, replay, probes = [], [], []
    tracer = Tracer() if plan["trace"] else None
    start = time.perf_counter()

    def running() -> bool:
        return time.perf_counter() - start < seconds

    if tracer:
        # Whole passes, so per-item work counts are exact.
        traced_main = tracer.wrap(ITEM, cli.main)
        while running():
            tracer.install({"cli": cli, "oracle": oracle})
            for item in items:
                tracer.item = len(attempts)
                attempts.append(attempt(traced_main, item, configs, scratch))
            # The same pass untraced: the pair sees the same machine load,
            # so their difference is the tracing overhead.
            tracer.uninstall()
            replay += [attempt(cli.main, item, configs, scratch)
                       for item in items]
    else:
        # At least one whole pass, then until the time is up; the host speed
        # is probed between items.
        last = -math.inf
        while len(attempts) < len(items) or running():
            if time.perf_counter() - last >= PROBE_EVERY_S:
                last = time.perf_counter()
                probes.append((last, probe()))
            item = items[len(attempts) % len(items)]
            attempts.append(attempt(cli.main, item, configs, scratch))
        probes.append((time.perf_counter(), probe()))

    result = {
        "attempts": attempts,
        "probes": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "numpy": numpy.__version__,
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"],
    }
    if tracer:
        traced = sum(a["seconds"] for a in attempts) / len(attempts)
        untraced = sum(a["seconds"] for a in replay) / len(replay)
        metrics, table = layer_metrics(tracer.spans)
        metrics["bench.trace_overhead_s"] = traced - untraced
        metrics["bench.trace_overhead_frac"] = traced / untraced - 1.0
        result.update(layer_metrics=metrics, self_time_table=table,
                      replay=replay, spans=tracer.spans)
    Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
