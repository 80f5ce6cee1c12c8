"""The environment every result is recorded with."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np


def _openblas():
    """The OpenBLAS library numpy loaded, or ``None``."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("lib*openblas*.so*")):
        try:
            return ctypes.CDLL(str(path))
        except OSError:
            continue
    return None


def blas_info() -> dict:
    config = np.show_config(mode="dicts") or {}
    blas = dict(config.get("Build Dependencies", {}).get("blas", {}))
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "threads": None}
    lib = _openblas()
    if lib is not None:
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                info["threads"] = int(getter())
                break
    return info


def environment(workload: str, seed: int, seconds: int, trace: bool,
                dtype: str) -> dict:
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "dtype": dtype,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }
