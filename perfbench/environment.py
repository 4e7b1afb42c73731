"""The machine and software a run measured on, for the run's report."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np
import scipy

_OPENBLAS_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                            "openblas_get_num_threads")


def _blas() -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"),
           "env_threads": os.environ.get("OPENBLAS_NUM_THREADS"), "threads": None}
    try:
        libs = {line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()
                if "openblas" in line and line.rstrip().endswith(".so")}
    except OSError:
        return out
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for fn_name in _OPENBLAS_THREAD_QUERIES:
            fn = getattr(lib, fn_name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                out["threads"] = fn()
                return out
    return out


def _caches() -> list[dict]:
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            entry = {k: (index / k).read_text().strip()
                     for k in ("level", "type", "size", "shared_cpu_list")}
        except OSError:
            continue
        caches.append(entry)
    return caches


def record(workload, state) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "caches_cpu0": _caches(),
        "working_set_bytes": state["working_set_bytes"],
    }
