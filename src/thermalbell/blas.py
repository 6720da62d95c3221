"""Thread count of the OpenBLAS that numpy loaded.

Two places run their matrix products on one OpenBLAS thread: frame
generation, whose worker threads would otherwise contend with OpenBLAS's
own, and the bootstrap products in ``correlate``, whose rounding would
otherwise depend on the thread count.  The library is found the way
``perfbench/run.py`` finds it; where there is none (another BLAS, or a numpy
without its bundled OpenBLAS) nothing is pinned and only speed differs.
"""

from __future__ import annotations

import contextlib
import functools
import os

# (prefix, suffix) of the thread-count symbols: scipy-openblas wheels, then
# ILP64 and plain OpenBLAS builds
_SYMBOLS = (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""))


@functools.lru_cache(maxsize=1)
def _openblas():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None."""
    import ctypes
    import glob

    import numpy as np
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in _SYMBOLS:
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def threads() -> int | None:
    """OpenBLAS's current thread count, or None where it cannot be asked."""
    lib = _openblas()
    return None if lib is None else int(lib[0]())


@contextlib.contextmanager
def one_thread():
    """Run the block with OpenBLAS on one thread, restoring the count after.

    Yields the count before, or None when no OpenBLAS was found.
    """
    lib = _openblas()
    if lib is None:
        yield None
        return
    get, put = lib
    before = int(get())
    put(1)
    try:
        yield before
    finally:
        put(before)
