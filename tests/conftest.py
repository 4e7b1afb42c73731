import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from parmcmc.rng import BufferKind, DeviateBuffer, OneAtATimeUniform  # noqa: E402

# sources that are no UNIFORM01 buffer, each with a reader of its next deviate
_NOT_UNIFORM_BUFFERS = {
    "per-call": (lambda: OneAtATimeUniform(seed=1), lambda src: src.next()),
    "numpy-generator": (lambda: np.random.default_rng(1), lambda src: src.random()),
    "normal-buffer": (lambda: DeviateBuffer(BufferKind.STD_NORMAL, seed=1), lambda src: src.next()),
}


@pytest.fixture(params=list(_NOT_UNIFORM_BUFFERS))
def refused_source(request):
    """(src, untouched): a source the samplers must refuse, and a check that none of its deviates was read."""
    make, next_deviate = _NOT_UNIFORM_BUFFERS[request.param]
    src = make()
    return src, lambda: next_deviate(src) == next_deviate(make())
