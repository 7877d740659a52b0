"""tools/golden_outputs.py: a digest does not depend on the BLAS thread
count of the environment that runs the tool."""

import os
import subprocess
import sys
from pathlib import Path

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
    # The washout's coherent-mode SVD rounds differently with two threads.
    item = "simulate/oracle_washout"
    assert digest_with_threads(item, 2) == digest_with_threads(item, 1)
