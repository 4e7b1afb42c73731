import importlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# imports the library and runs each call that used to reach scipy, then
# lists every scipy module the interpreter loaded
NO_SCIPY = """
import sys
import parmcmc, parmcmc.cli
from parmcmc import (BufferKind, DeviateBuffer, IsingLattice, gibbs_sweep,
                     synthetic_binary_image, synthetic_hb_dataset, synthetic_logistic)
lat = IsingLattice.from_image(synthetic_binary_image(16, 12), w=1.0, bias_scale=2.0)
gibbs_sweep(lat, DeviateBuffer(BufferKind.UNIFORM01, seed=1))
synthetic_logistic(50, 3, seed=2)
synthetic_hb_dataset(3, 2, 20, seed=3)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


@pytest.mark.parametrize("module", ["glm", "hb", "instrumentation", "ising", "parallel",
                                    "perf", "rng", "sampler"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"parmcmc.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, missing


def test_the_library_runs_without_loading_scipy():
    # scipy is a test and benchmark dependency only: a fresh interpreter
    # that imports parmcmc and draws data and Ising sweeps loads none of it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]
