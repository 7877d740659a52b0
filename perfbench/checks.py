"""Output checks for one benchmark item, read back from what the CLI wrote.

Every check is tolerance-based and holds for any correct implementation:
byte identity is not checked (it is reported as a digest instead), because
exact washout numbers are expected to change as the oracle is reworked.
``check_item`` returns the list of failed checks (empty when the item is
correct) and a sha256 digest of the item's outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# The program's documented slack on P^2 + V^2 <= 1 (metrics.DUALITY_TOLERANCE).
DUALITY_TOLERANCE = 1e-9
# Acceptance C5: a beam focused on slit A keeps the oracle's sum in [1, 1.01].
FOCUSED_SUM_MAX = 1.01
# Acceptance C3: oracle vs standard_two_slit under plane illumination.
C3_SUP_RELATIVE = 1e-8
# The empty-wave model's sum is 2 up to the parabolic extremum interpolation
# of visibility_fringe_local, which loses ~1e-5 at a few hundred samples per
# envelope lobe.
EMPTY_WAVE_SUM_TOL = 1e-4

SWEEP_COLUMNS = ("parameter", "value", "half_fringe_angle_rad",
                 "collimation_ok", "spot_fits_slit", "fraunhofer_ok",
                 "visibility_model", "visibility_oracle",
                 "divergence_sup_relative")


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12)


def _check_simulate(expect: dict, stdout: str, out: Path,
                    digest) -> list[str]:
    problems = []
    if expect["out_dir"]:
        raw = (out / "summary.json").read_bytes()
        digest.update(raw)
        summary = json.loads(raw)
        if json.loads(stdout) != summary:
            problems.append("stdout summary differs from summary.json")
    else:
        digest.update(stdout.encode())
        summary = json.loads(stdout)

    grid = summary["grid"]
    x_min, x_max, points = expect["grid"]
    if not (_close(grid["x_min_m"], x_min) and _close(grid["x_max_m"], x_max)
            and grid["points"] == points):
        problems.append(f"grid {grid} != expected {expect['grid']}")
    if summary["alignment"] != expect["alignment"]:
        problems.append("alignment differs from config")

    names = list(expect["models"])
    names += ["oracle"] if expect["oracle"] else []
    names += ["washout"] if expect["washout"] else []
    entries = summary["patterns"]
    if [e["model"] for e in entries] != names:
        problems.append(f"patterns {[e['model'] for e in entries]} != {names}")

    focused = expect["alignment"] != "cover_both"
    for e in entries:
        p, v, total = (e["which_way_value"], e["visibility_fringe_local"],
                       e["duality_sum"])
        if not math.isclose(total, p * p + v * v, rel_tol=1e-12,
                            abs_tol=1e-15):
            problems.append(f"{e['model']}: duality_sum {total!r} != P^2+V^2")
        if e["source"] in ("oracle", "washout"):
            if focused and not 1.0 <= total <= FOCUSED_SUM_MAX:
                problems.append(f"{e['model']}: focused sum {total!r} "
                                f"outside [1, {FOCUSED_SUM_MAX}]")
            if not focused and total > 1.0 + DUALITY_TOLERANCE:
                problems.append(f"{e['model']}: sum {total!r} exceeds 1")
        if (e["model"] == "empty_wave_a" and expect["alignment"] == "focus_a"
                and abs(total - 2.0) > EMPTY_WAVE_SUM_TOL):
            problems.append(f"empty_wave_a: sum {total!r} is not 2")

    if (expect["oracle"] and expect["beam"] == "plane"
            and "standard_two_slit" in expect["models"]):
        sup = [d["sup_relative"] for d in summary["divergences"]
               if d["model"] == "standard_two_slit"]
        if not sup or sup[0] > C3_SUP_RELATIVE:
            problems.append(f"oracle vs standard_two_slit sup {sup} > "
                            f"{C3_SUP_RELATIVE}")

    if expect["out_dir"]:
        x_ref = np.linspace(grid["x_min_m"], grid["x_max_m"], grid["points"])
        tol = 1e-12 * (grid["x_max_m"] - grid["x_min_m"])
        for e in entries:
            raw = (out / e["csv"]).read_bytes()
            digest.update(raw)
            header, _, body = raw.decode("ascii").partition("\n")
            data = np.array(body.replace(",", " ").split(), dtype=float)
            if header != "x_m,intensity" or data.size != 2 * grid["points"]:
                problems.append(f"{e['csv']}: header or row count wrong")
                continue
            x, intensity = data[0::2], data[1::2]
            if float(np.max(np.abs(x - x_ref))) > tol:
                problems.append(f"{e['csv']}: x column is not the grid")
            if not (np.all(np.isfinite(intensity))
                    and float(np.min(intensity)) >= 0.0):
                problems.append(f"{e['csv']}: bad intensities")
    return problems


def _check_sweep(expect: dict, out: Path, digest) -> list[str]:
    raw = out.read_bytes()
    digest.update(raw)
    lines = raw.decode("ascii").splitlines()
    if tuple(lines[0].split(",")) != SWEEP_COLUMNS:
        return [f"sweep header {lines[0]!r}"]
    rows = [dict(zip(SWEEP_COLUMNS, line.split(","))) for line in lines[1:]]
    values = expect["values"]
    if len(rows) != len(values):
        return [f"sweep has {len(rows)} rows for {len(values)} values"]
    problems = []
    visibilities = []
    for row, value in zip(rows, values):
        if row["parameter"] != "theta" or not _close(float(row["value"]),
                                                     value):
            problems.append(f"sweep row {row['parameter']}={row['value']} "
                            f"!= theta={value!r}")
        v = float(row["visibility_oracle"])
        if not 0.0 <= v <= 1.0:
            problems.append(f"sweep visibility_oracle {v!r} outside [0, 1]")
        visibilities.append(v)
    if expect["beam"] == "plane":
        # Row 0 is the plain oracle (theta = 0): acceptance C3.
        sup = float(rows[0]["divergence_sup_relative"])
        if sup > C3_SUP_RELATIVE:
            problems.append(f"sweep theta=0 sup {sup!r} > {C3_SUP_RELATIVE}")
        # Acceptance C6: visibility does not grow with the spread.
        if any(b > a + 1e-9 for a, b in zip(visibilities, visibilities[1:])):
            problems.append(f"sweep visibilities {visibilities} increase")
    return problems


def _check_check(expect: dict, stdout: str) -> list[str]:
    report = json.loads(stdout)
    geom = expect["geometry"]
    problems = []
    phi = math.asin(geom["wavelength"] / (2.0 * geom["slit_separation"]))
    if not _close(report["half_fringe_angle_rad"], phi):
        problems.append(f"half_fringe_angle {report['half_fringe_angle_rad']!r}"
                        f" != {phi!r}")
    far = 10.0 * (geom["slit_separation"] + geom["slit_width"]) ** 2 \
        / geom["wavelength"]
    if report["fraunhofer_ok"] != (geom["screen_distance"] >= far):
        problems.append("fraunhofer_ok disagrees with D >= 10 (d+s)^2/lambda")
    flags = (report["collimation_ok"], report["spot_fits_slit"],
             report["fraunhofer_ok"])
    if report["all_ok"] != all(flags):
        problems.append("all_ok disagrees with the three flags")
    if len(report["messages"]) != flags.count(False):
        problems.append("one message per failed flag expected")
    return problems


def _check_mzi(expect: dict, stdout: str) -> list[str]:
    report = json.loads(stdout)
    a2, b2 = expect["a"] ** 2, expect["b"] ** 2
    balance = abs(a2 - b2) / (a2 + b2)
    contrast = 2.0 * expect["a"] * expect["b"] / (a2 + b2)
    # Expected (which-way value, visibility, detected fraction) per mode.
    want = {
        "open": (balance, contrast, 1.0),
        "asymmetric": (balance, contrast, 1.0),
        "blocked": (1.0, 0.0, a2 / (a2 + b2)),
        "marker": (1.0, 0.0, 1.0),
        "knockout": (1.0, contrast, a2 / (a2 + b2)),
    }[expect["mode"]]
    got = (report["which_way_value"], report["visibility"],
           report["detected_fraction"])
    problems = []
    if any(abs(g - w) > 1e-9 for g, w in zip(got, want)):
        problems.append(f"mzi {expect['mode']}: (P, V, detected) {got} != "
                        f"{want}")
    p, v = report["which_way_value"], report["visibility"]
    if not math.isclose(report["duality_sum"], p * p + v * v, rel_tol=1e-12):
        problems.append("mzi duality_sum != P^2+V^2")
    return problems


def check_item(item: dict, stdout: str, out: Path) -> tuple[list[str], str]:
    """Failed checks and output digest of one finished item.

    ``out`` is the item's output directory (simulate) or file (sweep).
    """
    expect = item["expect"]
    digest = hashlib.sha256()
    kind = expect["kind"]
    try:
        if kind == "simulate":
            problems = _check_simulate(expect, stdout, out, digest)
        elif kind == "sweep":
            problems = _check_sweep(expect, out, digest)
        else:
            digest.update(stdout.encode())
            problems = (_check_check if kind == "check" else _check_mzi)(
                expect, stdout)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return problems, digest.hexdigest()
