"""The BLAS thread count of this process, read and set at run time.

numpy's wheels bundle scipy-openblas, whose `scipy_openblas_get_num_threads64_`
and `..._set_...` are reached through `ctypes` on the library that
`/proc/self/maps` lists, so nothing beyond the standard library is needed.
On any other BLAS, or where `/proc` is missing, `threads()` is None and
`set_threads` does nothing.

The last bits of the eigensolver and of the GRU's matrix products depend on
the thread count, so every process of one run must use the same count.
"""

from __future__ import annotations

import ctypes
import functools
import os

import numpy  # noqa: F401  (loads the BLAS that the lookup below finds)

# The variables that set the thread count when numpy loads its BLAS.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_LIBRARY = "libscipy_openblas64_"


@functools.cache
def _openblas():
    """(get, set) thread-count functions of the OpenBLAS numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            # a maps line's path is all after its fifth field, spaces included
            paths = sorted({line.rstrip("\n").split(maxsplit=5)[5]
                            for line in fh if _LIBRARY in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


def threads() -> int | None:
    """The thread count in effect, or None when no known BLAS was found."""
    lib = _openblas()
    return None if lib is None else lib[0]()


def set_threads(count: int) -> None:
    lib = _openblas()
    if lib is not None:
        lib[1](count)


def apply_policy() -> None:
    """One thread, unless the user set one of THREAD_VARS: on 2 vCPUs a
    second thread gains nothing at the default cohort and slows every solve
    several-fold while another CPU-bound process runs."""
    if not any(os.environ.get(name) for name in THREAD_VARS):
        set_threads(1)
