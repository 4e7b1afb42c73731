import importlib

import pytest


@pytest.mark.parametrize("module", ["glm", "hb", "ising", "perf", "rng", "sampler"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"parmcmc.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, missing
