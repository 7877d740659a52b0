"""Golden output digests: run a fixed matrix of ``whichway`` invocations
through ``whichway.cli.main`` and print one sha256 per item as JSON.

Write the listing of one checkout, then compare another checkout with it to
see which outputs a change moved:

    PYTHONPATH=/path/to/other/checkout/src python3 tools/golden_outputs.py \\
        > before.json
    PYTHONPATH=src python3 tools/golden_outputs.py --against before.json

With ``--against`` the tool prints the ids whose digests differ and the ids
missing from either side, and exits 1 if any digest differs.

``--dump DIR`` also writes each item's files to ``DIR/<item>/`` (for
example ``DIR/simulate/oracle_washout/out/pattern_washout.csv``) and the
listing to ``DIR/digests.json``.  Given such a directory, ``--against``
also prints, for each CSV that an item changed, every numeric column with
its largest |after - before| over its peak |before|, and for each JSON file
that an item changed, every leaf that moved, by its path (for example
``patterns[2].visibility_fringe_local``).  A number's change is
|after - before| over the largest |before| of the same key in the file,
list indices dropped (``patterns.visibility_fringe_local``), as a column's
is over its peak, so a divergence at rounding level that moves by rounding
reads as rounding:

    PYTHONPATH=/path/to/other/checkout/src python3 tools/golden_outputs.py \\
        --dump before > /dev/null
    PYTHONPATH=src python3 tools/golden_outputs.py --against before

The tool pins OpenBLAS, OpenMP and MKL to one thread before numpy loads: the
SVD of an oracle washout rounds differently with more threads, so the
digests of those items would depend on the host's thread count.

An item's digest covers its exit code, stdout, stderr and the name and bytes
of every file it wrote. The matrix covers every model, beam, alignment and
normalization, the model and oracle washouts (one whose plain and washout
column groups converge at different levels, one on a symmetric grid with
no point at x = 0, whose oracle mirrors x > 0, one at 0.8 rad whose 31
modes just fit the 32-row mode proxy of the 16-node start, and one whose
mode proxy fills the top level of a small refinement budget), an off-centre
grid longer than two CSV row blocks, an oracle and an oracle washout on
10,001 points (100 kernel row blocks, the last one padded; the plain
oracle's blocks in several spans), an oracle washout whose modes take two
column blocks and one whose modes take three, a model listed twice with the
oracle on, every sweep parameter, a theta sweep with a repeated value and a
spot width sweep with the oracle on, a swept slit width that breaks its key's rule or s < d, a swept
screen distance that breaks D > d and a swept theta of 2 rad, beyond the
tilt bound, ``check`` with each plate error, an oracle node count, a
reversed and a lone window bound, a CSV prefix that leaves the output
directory and one too long for the longest file name, ``check`` on a config
saved with a byte order mark and CRLF line ends, ``check`` and ``simulate``
on a grid too coarse for the fringes and on a far plate whose far-field
threshold overflows to inf, ``check`` on a washout spread of 90 degrees, a
focusing angle of 2 rad and grid and tilt counts above their bounds,
``check`` on a plate whose derived screen window is not finite, ``check``
and ``simulate`` on three plates whose model phases overflow on the grid, on
two whose model washout shifts the grid to a window that is not valid, and
on two windows too narrow for their points, a focused Gaussian too narrow to
light any quadrature node, and each ``mzi`` mode with balanced, unbalanced
and non-finite amplitudes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

# Before numpy loads (whichway imports it).
os.environ.update({var: "1" for var in ("OPENBLAS_NUM_THREADS",
                                        "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

from whichway import cli  # noqa: E402

# The listing inside a --dump directory.
DIGESTS = "digests.json"

PLATE = """\
wavelength = 632.8nm
slit_width = 2um
slit_separation = 12.6um
screen_distance = 0.1m
"""
ALL_MODELS = ("models = single_slit_a, empty_wave_a, empty_wave_b, "
              "empty_wave_sum, standard_two_slit, standard_focused_a, "
              "pure_fringe, general_two_slit\n")
FOCUS_MODELS = "models = empty_wave_a, standard_focused_a\n"
# Too coarse for the fringe period: exits 1 naming grid_points.
COARSE_GRID = "grid_min = -1mm\ngrid_max = 1mm\ngrid_points = 3\n"
# (d + s)^2 overflows, so the far-field threshold reads inf; runs anyway.
FAR_PLATE = ("slit_separation = 1e200m\nscreen_distance = 1e201m\n"
             "grid_min = -1um\ngrid_max = 1um\ngrid_points = 401\n")
# general_two_slit's phase overflows on a +-1 m grid: exits 1 naming
# slit_separation.  Here lambda D overflows, or pi d x, or only 2 pi d x.
OVERFLOW = ("grid_min = -1m\ngrid_max = 1m\nspot_width = 1um\n"
            "models = general_two_slit\nslit_width = 1um\n")
OVERFLOW_PLATES = {
    "overflow_lambda_d": OVERFLOW + "wavelength = 1e308m\n"
                         "slit_separation = 1e308m\n"
                         "screen_distance = 1.5e308m\ngrid_points = 11\n",
    "overflow_pi_d_x": OVERFLOW + "wavelength = 1e-3m\n"
                       "slit_separation = 1e308m\n"
                       "screen_distance = 1.5e308m\ngrid_points = 20001\n",
    "overflow_two_pi_d_x": OVERFLOW + "wavelength = 1e-3m\n"
                           "slit_separation = 5e307m\n"
                           "screen_distance = 6e307m\ngrid_points = 20001\n",
}

# A model washout samples the first model on the grid shifted by up to
# D sin(1 rad): the phase overflows on that window, or the window collapses
# to one float.  Both exit 1 naming washout_theta.
WASHOUT = "spot_width = 1um\nwashout_theta = 1\nwashout_tilts = 3\n"
WASHOUT_WINDOWS = {
    "washout_window_overflow": "wavelength = 1e150m\nslit_width = 1e153m\n"
                               "slit_separation = 1e154m\n"
                               "screen_distance = 2e154m\n"
                               "grid_min = -1e152m\ngrid_max = 1e152m\n"
                               "grid_points = 4001\n" + WASHOUT,
    "washout_window_collapse": "wavelength = 1e-300m\nslit_width = 1m\n"
                               "slit_separation = 1e10m\n"
                               "screen_distance = 1e11m\n"
                               "grid_min = -1e-297m\ngrid_max = 1e-297m\n"
                               + WASHOUT,
}
# Windows too narrow for their points in floating point (not distinct, or
# not evenly spaced): exit 1 naming grid_points.
NARROW_GRIDS = {
    "narrow_grid": "grid_min = 1m\ngrid_max = 1.0000000000000004m\n"
                   "grid_points = 5\n",
    "uneven_grid": "grid_min = 1m\ngrid_max = 1.0000001m\n"
                   "grid_points = 11\n",
}


def with_plate(extra: str) -> str:
    """PLATE plus ``extra``, where a key that ``extra`` sets replaces its
    PLATE line."""
    keys = {line.split("=")[0].strip() for line in extra.splitlines()}
    return "".join(line for line in PLATE.splitlines(keepends=True)
                   if line.split("=")[0].strip() not in keys) + extra


# name -> config lines added to PLATE (see with_plate) for
# ``simulate --out-dir``.
SIMULATE = {
    "models_peak": ALL_MODELS + "alpha = 0.8\nbeta = 0.3\n",
    "models_unit_integral": ALL_MODELS + "normalization = unit_integral\n",
    "plane_oracle": "oracle = true\n",
    "plane_tilt_oracle": "oracle = true\ntilt = 2mrad\n",
    "gaussian_cover_both": "beam = gaussian\nwaist = 20um\noracle = true\n",
    "gaussian_focus_a": "beam = gaussian\nwaist = 3um\nalignment = focus_a\n"
                        "oracle = true\n" + FOCUS_MODELS,
    "gaussian_focus_b": "beam = gaussian\nwaist = 3um\nalignment = focus_b\n"
                        "oracle = true\nmodels = empty_wave_b\n",
    "bessel_cover_both_no_flips": "beam = bessel\nradial_wavenumber = 2e5\n"
                                  "ring_phase_flips = false\noracle = true\n",
    "bessel_focus_a": "beam = bessel\nradial_wavenumber = 1.2e6\n"
                      "alignment = focus_a\noracle = true\n" + FOCUS_MODELS,
    "bessel_focus_b": "beam = bessel\nradial_wavenumber = 3e6\n"
                      "alignment = focus_b\noracle = true\n"
                      "models = empty_wave_b\n",
    # |J0| has kinks inside slit B, so this run exits 2 (no convergence)
    # after refining from 16 to 1,024 nodes.  The field is real, so the
    # oracle integrates only x >= 0 of the symmetric grid, and the worst
    # point it names is x = 0.00243036 m rather than whichever of +-x
    # rounding favours.
    "bessel_focus_b_no_flips": "beam = bessel\nradial_wavenumber = 3e6\n"
                               "alignment = focus_b\nring_phase_flips = false\n"
                               "oracle = true\nmodels = empty_wave_b\n",
    "model_washout": "models = empty_wave_a, standard_two_slit\n"
                     "washout_theta = 5mrad\nwashout_tilts = 21\n",
    "model_washout_unit_integral": "normalization = unit_integral\n"
                                   "washout_theta = 2mrad\nwashout_tilts = 11\n",
    "oracle_washout": "oracle = true\nwashout_theta = 5mrad\n",
    # 301 tilts over +-0.4 rad leave 24 coherent modes, the high-rank case.
    "oracle_washout_wide": "oracle = true\nwashout_theta = 0.4\n"
                           "washout_tilts = 301\n",
    "oracle_washout_focus_a": "beam = gaussian\nwaist = 3um\n"
                              "alignment = focus_a\noracle = true\n"
                              + FOCUS_MODELS
                              + "washout_theta = 1mrad\nwashout_tilts = 31\n",
    # 4,000 points have no x = 0: the folded oracle integrates the 2,000
    # points x > 0 and mirrors them onto the others.
    "oracle_washout_even": "beam = gaussian\nwaist = 3um\n"
                           "alignment = focus_a\noracle = true\n"
                           "washout_theta = 5mrad\ngrid_points = 4000\n",
    # From 16 nodes the plain oracle converges at 32 and the washout's 34
    # modes at 64: the two column groups of the shared pass part ways.
    "oracle_washout_levels": "oracle = true\noracle_nodes = 16\n"
                             "washout_theta = 1.2\n",
    # 0.8 rad leaves 31 modes, one short of filling the 32-row proxy of the
    # 16-node start; the mode rule keeping more, or the proxy shrinking,
    # moves this item.
    "oracle_washout_0p8rad": "oracle = true\nwashout_theta = 0.8rad\n"
                             "grid_points = 801\n",
    # 301 tilts at 1.2 rad take 34 modes, more than the mode proxy holds
    # at 16 nodes per interval, the top level of this budget: it keeps that
    # level's 32 modes, and the kernel's 16-node level disagrees with its
    # 8-node one, so the run exits 2.
    "oracle_washout_small_budget": "oracle = true\noracle_nodes = 8\n"
                                   "oracle_refinements = 1\n"
                                   "washout_theta = 1.2\nwashout_tilts = 301\n"
                                   "grid_points = 401\n",
    "custom_grid": "grid_min = -2mm\ngrid_max = 3mm\ngrid_points = 1201\n"
                   "csv_prefix = run\nfocusing_angle = 4mrad\n"
                   "spot_width = 20um\nmodels = standard_two_slit, pure_fringe\n",
    # Off-centre, with no x = 0 and both signs of x, over more than two CSV
    # row blocks: three patterns share the x column across block seams.
    "offcentre_grid": "grid_min = -1.3mm\ngrid_max = 2.9mm\n"
                      "grid_points = 5001\noracle = true\n"
                      "models = empty_wave_a, standard_two_slit\n",
    # 10,001 points: 99 kernel blocks of 101 rows and a 2-row tail, padded
    # to a 100th block.  At 256-512 nodes the plain oracle's blocks take
    # four and seven spans, and at 128 nodes the washout's take two; each
    # mode column takes its own gemm per span.
    "oracle_10001": "oracle = true\noracle_nodes = 128\n"
                    "grid_points = 10001\n",
    "oracle_washout_10001": "oracle = true\nwashout_theta = 5mrad\n"
                            "grid_points = 10001\n",
    # 20,001 points leave room for 13 mode columns per block, so the 24
    # modes at 0.4 rad take 2 blocks of 12 columns: the later one converges
    # against the peak of the first, in a call of its own.
    "oracle_washout_blocks": "oracle = true\nwashout_theta = 0.4\n"
                             "grid_points = 20001\n",
    # The 31 modes at 0.8 rad on 20,001 points take three blocks, of 11, 10
    # and 10 columns; the first shares the plain oracle's call.
    "oracle_washout_three_blocks": "oracle = true\nwashout_theta = 0.8rad\n"
                                   "grid_points = 20001\n",
    # A waist far below the node spacing lights no node: the oracle pattern
    # is identically zero, and the run exits 1 naming waist.
    "gaussian_dark_nodes": "beam = gaussian\nalignment = focus_a\n"
                           "waist = 1e-300m\noracle = true\n",
    # A model listed twice gives two entries, two divergences and two
    # writes of one CSV.
    "model_twice_oracle": "models = pure_fringe, pure_fringe\n"
                          "oracle = true\n",
    "config_error": "alpha = plenty\n",
    "coarse_grid": COARSE_GRID,
    "far_plate": FAR_PLATE,
    **OVERFLOW_PLATES,
    **WASHOUT_WINDOWS,
    **NARROW_GRIDS,
}

# name -> (config lines added to PLATE, --param, --values).
SWEEP = {
    "theta_oracle": ("oracle = true\nwashout_tilts = 21\n", "theta",
                     "0,2mrad,10mrad"),
    # A repeated value gives the row of its first occurrence.
    "theta_oracle_repeated": ("oracle = true\nwashout_tilts = 21\n", "theta",
                              "0,2mrad,2mrad,10mrad"),
    "theta_focus_a": ("beam = gaussian\nwaist = 3um\nalignment = focus_a\n"
                      "oracle = true\nwashout_tilts = 11\n" + FOCUS_MODELS,
                      "theta", "0,1mrad"),
    "spot_width": ("", "spot_width", "5um,12.6um,30um"),
    "spot_width_oracle": ("oracle = true\n", "spot_width", "5um,12.6um,30um"),
    "d_oracle": ("oracle = true\ngrid_points = 801\n", "d", "8um,12.6um,20um"),
    # A row takes the first model, peak-normalized and unwashed.
    "d_unit_integral_washout": ("oracle = true\ngrid_points = 801\n"
                                "models = empty_wave_sum, standard_two_slit\n"
                                "normalization = unit_integral\n"
                                "washout_theta = 2mrad\nwashout_tilts = 11\n",
                                "d", "8um,12.6um"),
    "s": ("models = empty_wave_a\n", "s", "1um,2um,4um"),
    "D": ("", "D", "1cm,0.1m,1m"),
    "wavelength": ("models = general_two_slit\nalpha = 0.6\n", "wavelength",
                   "400nm,632.8nm,800nm"),
    # A swept plate length keeps its key's rule and s < d < D: each exits
    # 1 naming the --param.
    "bad_geometry": ("", "s", "13um"),
    "s_zero": ("", "s", "0um"),
    "D_inside_plate": ("", "D", "1e-300m"),
    # A swept spread keeps the tilt bound: exits 1 naming focusing_angle.
    "theta_beyond_tilt_bound": ("", "theta", "2"),
}

# name -> config text for ``check``.
CHECK = {
    "plane": PLATE,
    "gaussian_focus_a": PLATE + "beam = gaussian\nwaist = 3um\n"
                                "alignment = focus_a\n",
    "bessel_wide_spread": PLATE + "beam = bessel\nradial_wavenumber = 1e5\n"
                                  "focusing_angle = 10mrad\n",
    "near_field": PLATE.replace("0.1m", "1mm"),
    # Each plate error exits 1 naming its key.
    "nonfinite_length": PLATE.replace("= 0.1m", "= 1e400m"),
    "nonpositive_length": PLATE.replace("= 2um", "= 0um"),
    "slit_not_narrower": PLATE.replace("= 2um", "= 20um"),
    "screen_inside_plate": PLATE.replace("= 0.1m", "= 10um"),
    "wavelength_over_2d": PLATE.replace("= 632.8nm", "= 30um"),
    # A quadrature, window or CSV prefix error exits 1 naming its key.
    "oracle_nodes_below_8": PLATE + "oracle_nodes = 4\n",
    "reversed_window": PLATE + "grid_min = 1mm\ngrid_max = -1mm\n",
    "lone_grid_min": PLATE + "grid_min = -1mm\n",
    "csv_prefix_escapes": PLATE + "csv_prefix = ../x\n",
    # One byte too long for <prefix>_standard_focused_a.csv.
    "csv_prefix_too_long": PLATE + f"csv_prefix = {'a' * 233}\n",
    # Parses as PLATE does.
    "bom_crlf": "\ufeff" + PLATE.replace("\n", "\r\n"),
    # check rejects what a run would reject before sampling.
    "coarse_grid": PLATE + COARSE_GRID,
    "far_plate": with_plate(FAR_PLATE),
    # The window derived from this plate is not finite: exits 1 naming
    # grid_min.
    "infinite_window": "wavelength = 1e308\nslit_width = 1um\n"
                       "slit_separation = 1e308\nscreen_distance = 1.5e308\n",
    **{name: with_plate(extra) for name, extra in
       {**OVERFLOW_PLATES, **WASHOUT_WINDOWS, **NARROW_GRIDS}.items()},
    # A spread of pi/2 or more, and a count above its bound, exit 1 naming
    # the key before any array exists.
    "washout_theta_90deg": PLATE + "washout_theta = 90deg\n",
    "focusing_angle_2rad": PLATE + "focusing_angle = 2\n",
    "grid_points_too_many": PLATE + "grid_points = 1000000000000\n",
    "washout_tilts_too_many": PLATE + "oracle = true\nwashout_theta = 5mrad\n"
                                      "washout_tilts = 1000000000001\n",
}

MZI_MODES = ("open", "blocked", "marker", "knockout", "asymmetric")
MZI_AMPLITUDES = {"balanced": [], "unbalanced": ["--a", "0.8", "--b", "0.45"],
                  "nonfinite": ["--a", "nan"]}


def items() -> list[tuple[str, list[str], str | None]]:
    """(item id, argv, config text) for the whole matrix, in a fixed order.

    ``{config}`` and ``{out}`` in argv stand for the item's config file and
    its output path."""
    out = []
    for name, extra in SIMULATE.items():
        out.append((f"simulate/{name}",
                    ["simulate", "--config", "{config}", "--out-dir", "{out}"],
                    with_plate(extra)))
    for name, (extra, param, values) in SWEEP.items():
        out.append((f"sweep/{name}",
                    ["sweep", "--config", "{config}", "--param", param,
                     "--values", values, "--out", "{out}"],
                    PLATE + extra))
    for name, text in CHECK.items():
        out.append((f"check/{name}", ["check", "--config", "{config}"], text))
    for mode in MZI_MODES:
        for amp_name, amps in MZI_AMPLITUDES.items():
            out.append((f"mzi/{mode}_{amp_name}",
                        ["mzi", "--mode", mode, *amps], None))
    return out


def run(argv: list[str], config: str | None
        ) -> tuple[str, dict[str, bytes]]:
    """Run one item: the sha256 of its exit code, stdout, stderr and
    written files, and those files by path (``out`` or ``out/<name>``)."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cfg_path, out_path = root / "scenario.cfg", root / "out"
        if config is not None:
            cfg_path.write_text(config, encoding="utf-8")
        argv = [a.replace("{config}", str(cfg_path))
                 .replace("{out}", str(out_path)) for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        h = hashlib.sha256()
        for part in (f"exit {code}", stdout.getvalue(), stderr.getvalue()):
            h.update(part.encode("utf-8") + b"\0")
        paths = [out_path] if out_path.is_file() \
            else sorted(p for p in out_path.rglob("*") if p.is_file())
        files = {}
        for path in paths:
            name = path.relative_to(root).as_posix()
            files[name] = path.read_bytes()
            h.update(name.encode("utf-8") + b"\0")
            h.update(files[name] + b"\0")
        return h.hexdigest(), files


def digest(argv: list[str], config: str | None) -> str:
    """sha256 of one item's exit code, stdout, stderr and written files."""
    return run(argv, config)[0]


def dump(directory: Path, digests: dict[str, str],
         files: dict[str, dict[str, bytes]]) -> None:
    """Write ``digests.json`` and each item's files under ``<item>/``."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / DIGESTS).write_text(json.dumps(digests, indent=2) + "\n",
                                     encoding="utf-8")
    for item_id, item_files in files.items():
        for name, data in item_files.items():
            path = directory / item_id / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)


def column_changes(before: bytes, after: bytes) -> dict[str, float | str]:
    """For two CSV texts with one header: each numeric column's largest
    |after - before| over its peak |before| value, or a note when the
    tables do not line up.  A column is numeric when every cell that is
    not empty parses as a float."""
    old = [line.split(",") for line in before.decode("ascii").splitlines()]
    new = [line.split(",") for line in after.decode("ascii").splitlines()]
    if old[0] != new[0] or len(old) != len(new):
        return {"": "header or row count differs"}
    out: dict[str, float | str] = {}
    for col, name in enumerate(old[0]):
        pairs = [(a[col], b[col]) for a, b in zip(old[1:], new[1:])]
        try:
            values = [(float(a), float(b)) for a, b in pairs if a or b]
        except ValueError:
            if any(a != b for a, b in pairs):
                out[name] = "text differs"
            continue
        peak = max((abs(a) for a, _ in values), default=0.0)
        change = max((abs(b - a) for a, b in values), default=0.0)
        out[name] = change / peak if peak else change
    return out


def _leaves(path: str, old, new):
    """(path, before, after) for each pair of leaves of two JSON values;
    raises ValueError where they do not line up."""
    if isinstance(old, dict) and isinstance(new, dict) \
            and old.keys() == new.keys():
        for key in old:
            yield from _leaves(f"{path}.{key}" if path else key, old[key],
                               new[key])
    elif isinstance(old, list) and isinstance(new, list) \
            and len(old) == len(new):
        for i, pair in enumerate(zip(old, new)):
            yield from _leaves(f"{path}[{i}]", *pair)
    elif isinstance(old, (dict, list)) or isinstance(new, (dict, list)):
        raise ValueError(f"documents differ in shape at {path!r}")
    else:
        yield path, old, new


def _same_key(path: str) -> str:
    """A leaf's path with its list indices dropped: the key it shares with
    the same field of every other list entry."""
    return re.sub(r"\[\d+\]", "", path)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def json_changes(before: bytes, after: bytes) -> dict[str, float | str]:
    """For two JSON documents of one shape: each leaf that differs, by its
    path, with |after - before| over the largest |before| of its key
    (:func:`_same_key`) for numbers (|after - before| where that is 0) and
    "differs" for other values; or a note when the documents do not line
    up (keys, lengths or kinds)."""
    old_doc, new_doc = json.loads(before), json.loads(after)
    try:
        leaves = list(_leaves("", old_doc, new_doc))
    except ValueError:
        return {"": "documents do not line up"}
    peaks: dict[str, float] = {}
    for path, old, _ in leaves:
        if _is_number(old):
            key = _same_key(path)
            peaks[key] = max(peaks.get(key, 0.0), abs(old))
    out: dict[str, float | str] = {}
    for path, old, new in leaves:
        if old == new:
            continue
        if _is_number(old) and _is_number(new):
            peak = peaks[_same_key(path)]
            out[path] = abs(new - old) / peak if peak else abs(new - old)
        else:
            out[path] = "differs"
    return out


def compare(digests: dict[str, str], before: dict[str, str],
            before_name: str,
            files: dict[str, dict[str, bytes]] | None = None,
            before_dir: Path | None = None) -> int:
    """Print the ids whose digests differ or that only one side has; 1 if
    any shared id differs.  With ``files`` and a dump in ``before_dir``,
    also print each differing CSV's column changes and each differing JSON
    file's leaf changes."""
    differ = [i for i in digests if i in before and digests[i] != before[i]]
    for item_id in differ:
        print(f"differs: {item_id}")
        if files is None or before_dir is None:
            continue
        for name, data in files[item_id].items():
            old_path = before_dir / item_id / name
            if not old_path.is_file():
                continue
            old = old_path.read_bytes()
            if old == data:
                continue
            changes = json_changes if name.endswith(".json") \
                else column_changes
            for column, change in changes(old, data).items():
                shown = (change if isinstance(change, str)
                         else f"{change:.2g}")
                print(f"  {name} {column}: {shown}")
    for item_id in sorted(before.keys() - digests.keys()):
        print(f"missing here: {item_id}")
    for item_id in sorted(digests.keys() - before.keys()):
        print(f"missing in {before_name}: {item_id}")
    shared = len(digests.keys() & before.keys())
    print(f"{shared - len(differ)} of {shared} shared items identical")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="BEFORE",
                        help="compare with a listing or a --dump directory "
                             "written earlier")
    parser.add_argument("--dump", metavar="DIR", type=Path,
                        help="also write each item's files to DIR/<item>/")
    args = parser.parse_args()
    against = None if args.against is None else Path(args.against)
    before_dir = against if against and against.is_dir() else None
    # Only a dump and a comparison with a dump read the files themselves.
    files = {} if args.dump is not None or before_dir is not None else None
    digests = {}
    for item_id, argv, config in items():
        if files is None:
            digests[item_id] = digest(argv, config)
        else:
            digests[item_id], files[item_id] = run(argv, config)
    if args.dump is not None:
        dump(args.dump, digests, files)
    if against is not None:
        listing = against / DIGESTS if before_dir else against
        before = json.loads(listing.read_text(encoding="utf-8"))
        return compare(digests, before, args.against, files, before_dir)
    json.dump(digests, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
