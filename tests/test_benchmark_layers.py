"""Every benchmark workload's traced run still finds the layers it wraps.

perfbench/run.py exits 2 on a usage error or a missing library and 3 when
a traced name is gone or records no span, so a library change that moves a
layer boundary the benchmark wraps fails here.  Traces land in the
git-ignored perfbench/out/.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    WORKLOADS = [w["name"] for w in json.load(_fh)["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_finds_every_layer(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode not in (2, 3), proc.stderr
