"""Config fuzzer: every config text either runs or exits 1 with an ``error:``
line that names a key or a line, through ``check``, ``simulate`` and
``sweep``; no exception escapes ``main``, ``check`` and ``simulate`` give
the same exit code, and what a run prints is strict JSON, with no ``NaN`` or
``Infinity``.  A sweep's error names no dataclass field.

Texts draw their keys from the config key table, with edge values: empty,
nan, +-inf, 1e400, negatives, wrong or missing units, misspelled choices,
duplicate lines and lines that are not ``key = value``.  A sweep draws its
``--param`` and one value, good or edge, of that parameter's key.  The
oracle stays off, ``grid_points`` <= 801 and ``washout_tilts`` <= 11, so
that no run allocates much.

A second profile turns the oracle on, with valid keys: beams, alignments,
``ring_phase_flips``, washout spreads in [0, pi/2), off-axis windows and
small quadrature budgets (``oracle_nodes`` 8-64, ``oracle_refinements``
1-3), with ``washout_tilts`` <= 11 and ``grid_points`` <= 401.  A run may
also exit 2 with its refinement history, on which ``check``, which runs
no oracle, exits 0; a spot that lights no node exits 1 naming the beam's
scale key, in ``check``, which samples the beam on the oracle's node
levels, too.
"""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from whichway import cli

LENGTH_EDGES = ["", "nan", "inf", "-inf", "1e400", "1e400um", "-2um", "0",
                "1e-300", "1e308", "2", "2deg", "2 parsec", "um"]
ANGLE_EDGES = ["", "nan", "inf", "-inf", "1e400", "-1mrad", "90deg", "1.6",
               "1e308", "2um", "3 furlong"]
NUMBER_EDGES = ["", "nan", "inf", "-inf", "1e400", "-1", "0", "1e-320",
                "1e308", "plenty"]

# key -> values that keep its rule.
GOOD = {
    "wavelength": ["632.8nm", "500nm"],
    "slit_width": ["2um", "1um"],
    "slit_separation": ["12.6um", "20um"],
    "screen_distance": ["0.1m", "1m"],
    "beam": ["plane", "gaussian", "bessel"],
    "alignment": ["cover_both", "focus_a", "focus_b"],
    "tilt": ["0", "2mrad"],
    "waist": ["3um", "20um"],
    "radial_wavenumber": ["1.2e6", "3e6"],
    "ring_phase_flips": ["true", "false"],
    "focusing_angle": ["0", "2mrad"],
    "spot_width": ["5um", "30um"],
    "models": ["standard_two_slit", "empty_wave_a, general_two_slit"],
    "alpha": ["1", "0.6"],
    "beta": ["1", "0.3"],
    "oracle": ["false", "off"],  # the oracle stays off
    "washout_theta": ["0", "5mrad"],
    "washout_tilts": ["1", "11"],
    "grid_points": ["401", "801"],
    "normalization": ["peak_single_slit", "unit_integral"],
    "csv_prefix": ["pattern", "run7"],
    "grid_min": ["-40mm", "-1mm"],
    "grid_max": ["40mm", "2mm"],
    "oracle_nodes": ["32", "16"],
    "oracle_rtol": ["1e-12", "1e-9"],
    "oracle_refinements": ["6", "2"],
}
# key, or the parser of a table key -> values that break a rule or a parse.
EDGES = {
    cli.parse_length: LENGTH_EDGES,
    cli.parse_angle: ANGLE_EDGES,
    float: NUMBER_EDGES,
    "beam": ["gausian", "Plane", ""],
    "alignment": ["focus_c", ""],
    "ring_phase_flips": ["treu", ""],
    "models": ["pure_fringe,,single_slit_a", "standard", ""],
    "oracle": ["flase", "nan", ""],
    # A count above its bound is rejected before it sizes an array.
    "washout_tilts": ["0", "-1", "2", "1.5", "nan", "", "65539"],
    "grid_points": ["2", "0", "-5", "1.5", "nan", "", "4194305"],
    "normalization": ["peak", ""],
    # The longest name a run writes, <prefix>_standard_focused_a.csv, is
    # 256 bytes long with either prefix.
    "csv_prefix": ["", "a/b", "a" * 233, "µ" * 116 + "a"],
    "oracle_nodes": ["4", "0", "-8", "1.5", "", "4097"],
    "oracle_refinements": ["0", "-1", "x", ""],
}
KEYS = list(cli._KEYS)
PLATE = ["wavelength", "slit_width", "slit_separation", "screen_distance"]
BOUNDED = ["grid_points", "washout_tilts"]  # always given, to bound the work
OTHERS = [key for key in KEYS if key not in PLATE + BOUNDED]
NOT_KEY_VALUE = ["oracle true", "= 3", "==", "wavelength"]
# The dataclass fields that are not config keys themselves; an error names
# the key, never the field.
FIELDS = {spec.field for spec in cli._KEYS.values()} - set(cli._KEYS)


def edges(key: str) -> list[str]:
    return EDGES[key] if key in EDGES else EDGES[cli._KEYS[key].parse]


@st.composite
def config_texts(draw, odds: int = 8) -> str:
    """Mostly single faults: each line keeps its key's rule odds - 1 times
    in odds, and a plate key or a ``key = value`` line is missing half as
    often.  A fault is the largest draw, so that examples shrink toward no
    fault."""
    fault = st.integers(0, odds - 1).map(lambda n: n == odds - 1)
    rare = st.integers(0, 2 * odds - 1).map(lambda n: n == 2 * odds - 1)
    keys = [key for key in PLATE if not draw(rare)] + BOUNDED
    keys += draw(st.lists(st.sampled_from(OTHERS), unique=True, max_size=6))
    if draw(fault):
        keys.append(draw(st.sampled_from(keys)))  # a duplicate line
    lines = []
    for key in draw(st.permutations(keys)):
        pool = edges(key) if draw(fault) else GOOD[key]
        lines.append(f"{key} = {draw(st.sampled_from(pool))}\n")
    if draw(rare):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(NOT_KEY_VALUE)) + "\n")
    return "".join(lines)


def test_every_key_has_values():
    assert sorted(GOOD) == sorted(KEYS)
    for key in KEYS:
        assert edges(key)


def run(argv: list[str]) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def reject_constant(token: str):
    raise ValueError(f"{token} is not JSON")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(config_texts())
def test_config_runs_or_names_its_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_text(text, encoding="utf-8")
        codes = []
        for command in ("check", "simulate"):
            code, out, err = run([command, "--config", str(path)])
            assert code in (cli.EXIT_OK, cli.EXIT_CONFIG), err
            if code == cli.EXIT_OK:
                json.loads(out, parse_constant=reject_constant)
            else:
                assert err.startswith("error: "), err
                assert "(key '" in err or "(line " in err, err
            codes.append(code)
        # check runs simulate's pre-flight, and the oracle is off
        assert codes[0] == codes[1], text


@st.composite
def oracle_texts(draw) -> str:
    """A valid plate with the oracle on; the beam, its alignment, the
    washout, the window and the quadrature budget vary."""
    keys = {key: draw(st.sampled_from(GOOD[key])) for key in PLATE}
    beam = keys["beam"] = draw(st.sampled_from(GOOD["beam"]))
    if beam != "plane" or draw(st.integers(0, 3)) == 3:
        keys["alignment"] = draw(st.sampled_from(GOOD["alignment"]))
    if beam == "gaussian":
        keys["waist"] = draw(st.sampled_from(["1um", "3um", "20um",
                                              "1e-30m"]))
    elif beam == "bessel":
        keys["radial_wavenumber"] = draw(st.sampled_from(["5e5", "1.2e6",
                                                          "3e6"]))
        keys["ring_phase_flips"] = draw(st.sampled_from(["true", "false"]))
    theta = draw(st.none() | st.floats(0.0, 0.5 * math.pi, exclude_max=True))
    if theta is not None:
        keys["washout_theta"] = repr(theta)
    keys["washout_tilts"] = str(draw(st.integers(0, 5)) * 2 + 1)
    keys["grid_points"] = str(draw(st.sampled_from([2, 401])
                                   | st.integers(101, 401)))
    if draw(st.booleans()):  # off axis; the derived window otherwise
        centre = draw(st.sampled_from([0.0, 5e-3, 0.04, 1.0, 100.0]))
        half = draw(st.sampled_from([5e-4, 5e-3, 0.04]))
        keys["grid_min"] = f"{centre - half!r}m"
        keys["grid_max"] = f"{centre + half!r}m"
    keys["oracle"] = "true"
    keys["oracle_nodes"] = str(draw(st.integers(8, 64)))
    keys["oracle_refinements"] = str(draw(st.integers(1, 3)))
    keys["oracle_rtol"] = draw(st.sampled_from(GOOD["oracle_rtol"]))
    return "".join(f"{key} = {value}\n" for key, value in keys.items())


README_PLATE = ("wavelength = 632.8nm\nslit_width = 2um\n"
                "slit_separation = 12.6um\nscreen_distance = 0.1m\n")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(oracle_texts())
@example(README_PLATE + "beam = gaussian\nalignment = focus_a\nwaist = 3um\n"
         "washout_theta = 5mrad\nwashout_tilts = 11\ngrid_points = 401\n"
         "oracle = true\n")
@example(README_PLATE + "beam = gaussian\nalignment = focus_a\n"
         "waist = 1e-30m\nwashout_tilts = 1\ngrid_points = 401\n"
         "oracle = true\n")
@example(README_PLATE + "beam = gaussian\nalignment = focus_a\n"
         "waist = 1e-30m\nwashout_tilts = 1\ngrid_points = 401\n"
         "oracle = true\noracle_nodes = 9\n")
@example(README_PLATE + "grid_min = 99.9995m\ngrid_max = 100m\n"
         "washout_tilts = 1\ngrid_points = 2\noracle = true\n"
         "oracle_refinements = 3\n")
def test_oracle_config_runs_or_names_its_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_text(text, encoding="utf-8")
        runs = [run([command, "--config", str(path)])
                for command in ("check", "simulate")]
    for code, out, err in runs:
        if code == cli.EXIT_OK:
            json.loads(out, parse_constant=reject_constant)
        elif code == cli.EXIT_CONFIG:
            assert err.startswith("error: "), err
            assert "(key '" in err, err
        else:
            assert code == cli.EXIT_NO_CONVERGENCE, err
            lines = err.splitlines()
            assert lines[0].startswith("error: quadrature did not converge")
            assert lines[1].startswith("refinement history"), err
            assert len(lines) == 2 + int(cli.parse_config(
                text).quadrature.max_refinements), err
    (check, _, _), (simulate, _, err) = runs
    if simulate == cli.EXIT_NO_CONVERGENCE:
        # the oracle's own outcome, which check does not run
        assert check == cli.EXIT_OK, text
    else:
        assert check == simulate, text


@st.composite
def swept_values(draw) -> tuple[str, str]:
    """A sweep --param and one value of its key, an edge 1 time in 4."""
    param = draw(st.sampled_from(cli.SWEEP_PARAMETERS))
    key = cli._SWEEP_KEYS[param]
    pool = edges(key) if draw(st.integers(0, 3)) == 3 else GOOD[key]
    return param, draw(st.sampled_from(pool))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(config_texts(odds=64), swept_values())
@example("wavelength = 632.8nm\nslit_width = 2um\nslit_separation = 12.6um\n"
         "screen_distance = 0.1m\ngrid_points = 401\nwashout_tilts = 1\n",
         ("s", "0"))
def test_sweep_runs_or_names_its_error(text, swept):
    param, value = swept
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(["sweep", "--config", str(path), "--param",
                              param, f"--values={value}"])
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG), err
    if code == cli.EXIT_OK:
        assert out.startswith("parameter,value,"), out
    else:
        assert err.startswith("error: "), err
        assert "(key '" in err or "(line " in err, err
        assert not FIELDS & set(re.findall(r"\w+", err)), err
