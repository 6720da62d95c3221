"""The compute kernels numpy runs on: its OpenBLAS and its SIMD level.

Two places run their matrix products on one OpenBLAS thread: frame
generation, whose worker threads would otherwise contend with OpenBLAS's
own, and the bootstrap products in ``correlate``, whose rounding would
otherwise depend on the thread count.  The library is found the way
``perfbench/run.py`` finds it; where there is none (another BLAS, or a numpy
without its bundled OpenBLAS) nothing is pinned and only speed differs.

``kernels`` names the OpenBLAS kernel set and numpy's highest enabled x86
SIMD level, which the sidecars record beside the outputs they made.
"""

from __future__ import annotations

import contextlib
import functools
import os

# (prefix, suffix) of the OpenBLAS symbols: scipy-openblas wheels, then
# ILP64 and plain OpenBLAS builds
_SYMBOLS = (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""))

# numpy's x86 microarchitecture levels, highest first
_SIMD_LEVELS = ("X86_V4", "X86_V3", "X86_V2")


@functools.lru_cache(maxsize=1)
def _library():
    """numpy's OpenBLAS and the (prefix, suffix) of its symbols, or None."""
    import ctypes
    import glob

    import numpy as np
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in _SYMBOLS:
            if hasattr(lib, f"{prefix}get_num_threads{suffix}"):
                return lib, prefix, suffix
    return None


def _function(name: str, argtypes: list, restype):
    """The OpenBLAS function ``name`` with its prototype set, or None."""
    found = _library()
    if found is None:
        return None
    lib, prefix, suffix = found
    fn = getattr(lib, f"{prefix}{name}{suffix}", None)
    if fn is not None:
        fn.argtypes, fn.restype = argtypes, restype
    return fn


@functools.lru_cache(maxsize=1)
def _openblas():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None."""
    import ctypes

    get = _function("get_num_threads", [], ctypes.c_int)
    put = _function("set_num_threads", [ctypes.c_int], None)
    return None if get is None or put is None else (get, put)


def threads() -> int | None:
    """OpenBLAS's current thread count, or None where it cannot be asked."""
    lib = _openblas()
    return None if lib is None else int(lib[0]())


def kernels() -> dict[str, str | None]:
    """The kernels that decide the last bits of numpy's arithmetic here:
    OpenBLAS's core name (``SkylakeX``; ``Haswell`` under
    ``OPENBLAS_CORETYPE=Haswell``) as ``blas_core``, and numpy's highest
    enabled x86 SIMD level (``X86_V4``) as ``numpy_simd``.  Each is None
    where it cannot be found."""
    import ctypes

    corename = _function("get_corename", [], ctypes.c_char_p)
    core = corename() if corename is not None else None
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        features = {}
    return {"blas_core": core.decode().strip() if core else None,
            "numpy_simd": next((level for level in _SIMD_LEVELS if features.get(level)),
                               None)}


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
