"""Start-up: importing the package and the CLI, parsing a config, every
``mzi`` mode and the divergence record load no numpy, checking a grid loads
no model module, and ``whichway.cli`` binds its array names on first use in
a way that a tracer wrapping them on the module still sees.

Each test runs in a fresh interpreter, since this test process has loaded
numpy long before.
"""

import os
import subprocess
import sys
from pathlib import Path

from whichway import cli
from whichway.specs import ModelKind

ROOT = Path(__file__).resolve().parent.parent

# Every config key, each of cli._KEYS.
FULL_CONFIG = """\
wavelength = 632.8nm
slit_width = 2um
slit_separation = 12.6um
screen_distance = 0.1m
beam = gaussian
alignment = focus_a
tilt = 0
waist = 3um
radial_wavenumber = 1e6
ring_phase_flips = true
focusing_angle = 0.5mrad
spot_width = 6um
models = empty_wave_a, standard_focused_a
alpha = 1
beta = 0.5
oracle = true
washout_theta = 2mrad
washout_tilts = 5
grid_points = 401
normalization = peak_single_slit
csv_prefix = p
oracle_nodes = 16
oracle_rtol = 1e-10
oracle_refinements = 4
grid_min = -40mm
grid_max = 40mm
"""

# argv[1] is the config path.
NUMPY_FREE_START = """\
import contextlib, io, sys

def no_numpy(after):
    assert "numpy" not in sys.modules, "numpy loaded by " + after

import whichway
no_numpy("import whichway")
import whichway.cli as cli
no_numpy("import whichway.cli")
with open(sys.argv[1], encoding="utf-8") as f:
    cli.parse_config(f.read())
no_numpy("parse_config")
for mode in [m.value for m in cli.MziMode] + ["asymmetric"]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["mzi", "--mode", mode, "--a", "0.6", "--b", "0.8"]) == 0
    no_numpy("mzi --mode " + mode)
assert cli._load_arrays.cache_info().misses == 0
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["simulate", "--config", sys.argv[1]]) == 0
assert "numpy" in sys.modules
"""

# Every model on a plane wave, no oracle and no washout: a run samples
# each model once.
EIGHT_MODEL_CONFIG = FULL_CONFIG.split("beam =")[0] + "grid_points = 401\n" \
    + "models = " + ", ".join(kind.value for kind in ModelKind) + "\n"

# argv[1] is the config path, argv[2] the perfbench directory, argv[3] the
# eight-model config path.
TRACED_RUN = """\
import contextlib, io, sys
import whichway.cli as cli
import whichway.oracle as oracle
sys.path.insert(0, sys.argv[2])
import spans

tracer = spans.Tracer()
tracer.install({"cli": cli, "oracle": oracle})
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["simulate", "--config", sys.argv[1]]) == 0
names = {span["name"] for span in tracer.spans}
assert {"analytic.sample_pattern", "oracle.fraunhofer_amplitude"} <= names, names
before = len(tracer.spans)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["simulate", "--config", sys.argv[3]]) == 0
sampled = [span for span in tracer.spans[before:]
           if span["name"] == "analytic.sample_pattern"]
assert len(sampled) == 8, len(sampled)
tracer.uninstall()
modules = {"cli": cli, "oracle": oracle}
for module, attr, name in spans.TARGETS:
    # The original is the function of the module the span is named after.
    home = sys.modules["whichway." + name.split(".")[0]]
    value = getattr(modules[module], attr)
    assert value is vars(home)[attr] and value.__module__ == home.__name__, \\
        (module, attr)
"""

# argv[1] is the config path.
BOUND_FIRST = """\
import contextlib, io, sys
import whichway.cli as cli
import whichway.analytic as analytic

calls = []

def sample_pattern(*args, **kwargs):
    calls.append(args[0])
    return analytic.sample_pattern(*args, **kwargs)

cli.sample_pattern = sample_pattern
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["simulate", "--config", sys.argv[1]]) == 0
assert cli.sample_pattern is sample_pattern and len(calls) == 2, calls
"""

# The divergence record and the grid's step rule are declared in specs, so
# reading the one loads no numpy and checking a grid loads no model module.
SPECS_ALONE = """\
import sys
import whichway
assert whichway.PatternDivergence.__module__ == "whichway.specs"
assert "numpy" not in sys.modules, "numpy loaded by PatternDivergence"
assert "whichway.metrics" not in sys.modules
whichway.GridSpec(-1.0, 1.0, 11).check_points()
assert "whichway.analytic" not in sys.modules, "analytic loaded by check_points"
"""


def run_fresh(code: str, *args: str) -> None:
    # No bytecode: importing perfbench/spans.py leaves that directory as
    # it is.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def write_config(tmp_path: Path) -> str:
    path = tmp_path / "full.cfg"
    path.write_text(FULL_CONFIG, encoding="utf-8")
    return str(path)


def test_full_config_sets_every_key():
    keys = {line.split("=")[0].strip() for line in FULL_CONFIG.splitlines()}
    assert keys == set(cli._KEYS)


def test_parse_and_mzi_load_no_numpy(tmp_path):
    run_fresh(NUMPY_FREE_START, write_config(tmp_path))


def test_tracer_wraps_the_names_bound_on_first_use(tmp_path):
    eight = tmp_path / "eight.cfg"
    eight.write_text(EIGHT_MODEL_CONFIG, encoding="utf-8")
    run_fresh(TRACED_RUN, write_config(tmp_path), str(ROOT / "perfbench"),
              str(eight))


def test_a_name_bound_before_the_loader_is_kept(tmp_path):
    run_fresh(BOUND_FIRST, write_config(tmp_path))


def test_specs_load_no_array_module():
    run_fresh(SPECS_ALONE)
