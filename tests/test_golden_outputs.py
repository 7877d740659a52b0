"""tools/golden_outputs.py: a digest does not depend on the BLAS thread
count of the environment that runs the tool, and a dumped listing gives
each changed CSV column's and JSON leaf's relative change."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# Digest one item of the tool's matrix; the item id is argv[1].
DIGEST_ONE = """\
import sys
import golden_outputs
[(argv, config)] = [(argv, config) for item, argv, config
                    in golden_outputs.items() if item == sys.argv[1]]
print(golden_outputs.digest(argv, config))
"""


def digest_with_threads(item: str, threads: int) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tools")]))
    env.update({var: str(threads) for var in BLAS_THREAD_VARS})
    done = subprocess.run([sys.executable, "-c", DIGEST_ONE, item], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_oracle_washout_digest_does_not_depend_on_blas_threads():
    # The washout's coherent-mode SVD rounds differently with two threads;
    # the mode phases and the kernel gemms, one per mode column, which the
    # plain oracle takes too, must not, also where the plain and washout
    # groups converge at different levels.
    for item in ("simulate/oracle_washout", "simulate/oracle_washout_10001",
                 "simulate/oracle_10001", "simulate/oracle_washout_levels"):
        assert digest_with_threads(item, 2) == digest_with_threads(item, 1)


def import_tool(monkeypatch):
    # The tool pins the BLAS thread variables when it is imported; setenv
    # first, so that they are restored after the test.
    for var in BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import golden_outputs
    return golden_outputs


def test_dump_and_compare_report_column_changes(tmp_path, monkeypatch,
                                                capsys):
    golden = import_tool(monkeypatch)
    before = b"x_m,intensity,flag,note\n-1,0.5,true,\n0,1,false,\n"
    after = b"x_m,intensity,flag,note\n-1,0.5,true,\n0,0.999,true,\n"
    assert golden.column_changes(before, after) == {
        "x_m": 0.0, "intensity": pytest.approx(1e-3), "flag": "text differs",
        "note": 0.0}
    assert golden.column_changes(before, before + b"1,0,true,\n") == {
        "": "header or row count differs"}

    golden.dump(tmp_path / "before", {"simulate/a": "1", "check/b": "2"},
                {"simulate/a": {"out/p.csv": before, "out/s.json": b"{}"},
                 "check/b": {}})
    assert (tmp_path / "before" / "simulate/a/out/p.csv").read_bytes() \
        == before
    code = golden.compare({"simulate/a": "3", "check/b": "2"},
                          {"simulate/a": "1", "check/b": "2"}, "before",
                          {"simulate/a": {"out/p.csv": after,
                                          "out/s.json": b"[]"},
                           "check/b": {}}, tmp_path / "before")
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: simulate/a",
        "  out/p.csv x_m: 0",
        "  out/p.csv intensity: 0.001",
        "  out/p.csv flag: text differs",
        "  out/p.csv note: 0",
        "  out/s.json : documents do not line up",
        "1 of 2 shared items identical",
    ]


def test_json_changes_name_each_moved_leaf(monkeypatch):
    golden = import_tool(monkeypatch)
    before = (b'{"tool": "whichway", "grid": {"points": 401}, "patterns": '
              b'[{"model": "a", "v": 0.5, "ok": true}, {"v": 0.0}]}')
    after = (b'{"tool": "whichway", "grid": {"points": 401}, "patterns": '
             b'[{"model": "b", "v": 0.505, "ok": false}, {"v": 1e-17}]}')
    assert golden.json_changes(before, after) == {
        "patterns[0].model": "differs",
        "patterns[0].v": pytest.approx(1e-2),
        "patterns[0].ok": "differs",
        "patterns[1].v": 1e-17}
    assert golden.json_changes(before, before) == {}
    for moved in (b'{"tool": "whichway"}', b'{"patterns": []}', b'[]',
                  before.replace(b'{"v": 0.0}', b'0.0')):
        assert golden.json_changes(before, moved) == {
            "": "documents do not line up"}
