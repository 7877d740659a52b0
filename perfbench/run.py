"""whichway benchmark: seeded closed-loop workloads through the CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload oracle_washout --seed 1 \
        --seconds 45 --trace 0

One client issues items back-to-back through ``whichway.cli.main`` in one
fresh worker process (so ``peak_rss_mb`` is that run's own), cycling through
the workload's items.  Every item's outputs are checked.  An item's time is
the median of its attempts, each corrected to a reference host speed
(``hostspeed.py``).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones from an instrumented run.  The last stdout
line is one JSON object; the full record (environment, generated configs and
argument lists, per-item times, checks and digests) goes to
``.perfbench_out/<workload>-seed<n>-trace<t>.json``, and a traced run's spans
to ``.perfbench_out/<workload>-seed<n>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# One BLAS thread: the program's matrix products are matrix-vector products,
# which a second thread does not speed up; on a small shared host its
# spinning on another vCPU only slows the thread that does the work.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# Before numpy loads, so that this process probes the host speed with the
# same BLAS threads as the worker.
os.environ.update({var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})

sys.path.insert(0, str(HERE))
from hostspeed import corrected, probe  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SETUP_REPEATS = 11
WORKER_TIMEOUT_S = 150
TAIL_BEYOND = 10
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# Cold start of a user's batch: a fresh interpreter imports the CLI and
# parses every config of the cycle, then reports ready on stdout.
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import whichway.cli as cli\n"
              "for path in sys.argv[2:]:\n"
              "    with open(path, encoding='utf-8') as f:\n"
              "        cli.parse_config(f.read())\n"
              "print('ready', flush=True)\n")
SETUP_TIMEOUT_S = 60


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_sha() -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def measure_setup(configs: list[Path]) -> tuple[list[dict], list]:
    """Seconds from spawning each cold interpreter to its ready line, as
    attempts in the form ``hostspeed.corrected`` takes, and the host speed
    probes made before and after each spawn.

    The ready line is read as it arrives rather than timing the exit,
    because waiting with a timeout polls in 50 ms steps.
    """
    samples = []
    probe()  # warm-up
    probes = [(time.perf_counter(), probe())]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC),
                               *map(str, configs)],
                              stdout=subprocess.PIPE, text=True) as child:
            try:
                ready, _, _ = select.select([child.stdout], [], [],
                                            SETUP_TIMEOUT_S)
                line = child.stdout.readline() if ready else ""
            except BaseException:
                child.kill()
                raise
            samples.append({"at": start,
                            "seconds": time.perf_counter() - start})
            if line != "ready\n":
                child.kill()
            if child.wait(timeout=SETUP_TIMEOUT_S) != 0:
                raise subprocess.CalledProcessError(child.returncode,
                                                    "setup interpreter")
        probes.append((time.perf_counter(), probe()))
    return samples, probes


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile in
    TAIL_PERCENTILES with at least TAIL_BEYOND samples beyond it, by nearest
    rank.  With too few samples for p50: the maximum."""
    ordered = sorted(times)
    n = len(ordered)
    best = (ordered[-1], 100.0, 0)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            best = (ordered[rank - 1], pct, n - rank)
    return best


def item_times(items: list[dict], attempts: list[dict],
               probes: list) -> list[float]:
    """Each cycle item's median corrected attempt time, in cycle order."""
    per_item = {}
    for a, t in zip(attempts, corrected(attempts, probes)):
        per_item.setdefault(a["id"], []).append(t)
    return [statistics.median(per_item[item["id"]]) for item in items]


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s/item"
    if name.endswith("_frac") or name.endswith(".share"):
        return "fraction"
    if name.endswith("bytes_computed") or name.endswith(".bytes"):
        return "B/item"
    return "count/item"


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    if not (SRC / "whichway" / "cli.py").is_file():
        print(f"error: no whichway sources under {SRC}", file=sys.stderr)
        return 2
    items = generate(workload, seed)
    work = OUT / f"work-{os.getpid()}"
    configs = work / "configs"
    scratch = work / "scratch"
    try:
        configs.mkdir(parents=True, exist_ok=True)
        scratch.mkdir(exist_ok=True)
        paths = []
        for item in items:
            if item["config"] is not None:
                path = configs / f"{item['id']}.cfg"
                path.write_text(item["config"], encoding="utf-8")
                paths.append(path)
        setup, setup_probes = measure_setup(paths)

        plan = {"items": items, "src": str(SRC), "configs": str(configs),
                "scratch": str(scratch), "seconds": seconds, "trace": trace}
        (work / "plan.json").write_text(json.dumps(plan))
        worker = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(work / "plan.json"),
             str(work / "result.json")],
            capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S)
        if worker.returncode != 0:
            print(worker.stderr[-4000:], file=sys.stderr)
            print(f"error: worker exited with {worker.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads((work / "result.json").read_text())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempts = result["attempts"]
    times = [a["seconds"] for a in attempts]
    # A traced run also counts its untraced passes as attempts.
    every = attempts + result.get("replay", [])
    failed = sum(bool(a["problems"]) for a in every)
    if trace:
        metrics = {name: (value, layer_unit(name))
                   for name, value in sorted(result["layer_metrics"].items())}
    else:
        per_item = item_times(items, attempts, result["probes"])
        tail_s, tail_pct, tail_beyond = tail(per_item)
        metrics = {
            "items_per_s": (len(items) / sum(per_item), "1/s"),
            "item_p50_s": (statistics.median(per_item), "s"),
            "item_tail_s": (tail_s, "s"),
            "setup_s": (statistics.median(corrected(setup, setup_probes)),
                        "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    env = {"git_sha": git_sha(), "python": platform.python_version(),
           "numpy": result["numpy"], "blas": result["blas"].get("name"),
           "blas_version": result["blas"].get("version"),
           "blas_threads": BLAS_THREADS, "nproc": nproc(),
           "cpu_model": cpu_model()}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "environment": env, "items": items,
        "attempts": attempts, "probes": result["probes"],
        "setup_samples": setup, "setup_probes": setup_probes,
        "metrics": metrics,
    }
    stem = f"{workload}-seed{seed}"
    if not trace:
        record["tail"] = {"percentile": tail_pct, "beyond": tail_beyond,
                          "samples": len(items)}
        record["item_times_s"] = dict(zip((i["id"] for i in items),
                                          per_item))
        record["raw_attempt_p50_s"] = statistics.median(times)
    else:
        record["replay"] = result["replay"]
        record["self_time_table"] = result["self_time_table"]
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as f:
            for span in result["spans"]:
                f.write(json.dumps(span) + "\n")
    record_path = OUT / f"{stem}-trace{int(trace)}.json"
    record_path.write_text(json.dumps(record, indent=1))

    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"items {len(every)}  failed {failed} "
          f"(failed_frac {failed / len(every):.4g})")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    if not trace:
        print(f"  item times are corrected to the reference host speed: "
              f"medians of {len(times)} attempts over {len(items)} items "
              f"(raw median attempt {statistics.median(times):.6g} s)")
        print(f"  item_tail_s is p{tail_pct:.2f} of {len(items)} items, "
              f"{tail_beyond} beyond it")
    else:
        table = sorted(result["self_time_table"].items(),
                       key=lambda kv: -kv[1]["self_s"])
        print("  largest self times (s over the run):")
        for name, row in table[:6]:
            print(f"    {name:36s} {row['self_s']:.4f}  calls {row['calls']}")
    for a in every:
        if a["problems"]:
            print(f"  FAILED {a['id']}: {'; '.join(a['problems'])}")
    print("  environment: " + json.dumps(env))
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(every), "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Killed from outside, still stop the child and remove the work files.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
