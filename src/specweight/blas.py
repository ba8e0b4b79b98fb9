"""The BLAS thread count of this process, read and set at run time.

numpy's wheels bundle scipy-openblas, which numpy's linear-algebra extension
links. A `ctypes` handle on that extension resolves the library's
`scipy_openblas_get_num_threads64_` and `..._set_...`, since `dlsym` on a
handle also searches the libraries its object links; so no file is read and
nothing beyond the standard library is needed. On any other BLAS
`threads()` is None and `set_threads` does nothing.

The last bits of the eigensolver and of the GRU's matrix products depend on
the thread count, so every process of one run must use the same count.
"""

from __future__ import annotations

import ctypes
import functools
import os

# The variables that set the thread count when numpy loads its OpenBLAS.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@functools.cache
def _openblas():
    """(get, set) thread-count functions of the OpenBLAS numpy links, or None."""
    try:
        from numpy.linalg import _umath_linalg

        # fspath raises TypeError on a None __file__, where CDLL would
        # open the main program instead
        lib = ctypes.CDLL(os.fspath(_umath_linalg.__file__))
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (ImportError, TypeError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


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
