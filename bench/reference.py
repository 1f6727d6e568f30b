"""Host-speed reference: a fixed kernel that calls no fusionkit code.

The benchmark's host is a shared 2-vCPU machine whose speed drifts by 20-40%
over seconds to minutes (see README.md, *Machine noise*). An untraced run
times this kernel right after every question, outside the question's timed
window and on the same thread, and reports each question's time scaled by
``NOMINAL_S`` over the kernel's time next to it: the question's time at the
reference speed.

The kernel is small dense linear algebra at the sizes fusionkit works on,
the kind of work most question time goes to. Its numpy entry points are
bound here at import, before the tracer can patch ``numpy.linalg``. It
always runs on one BLAS thread: numpy's OpenBLAS is set to one thread for
the kernel and set back to its previous count after it, so neither the
workload's thread setting nor the library's changes the reference.
"""

from __future__ import annotations

import ctypes
import glob
import time
from pathlib import Path

import numpy as np
from numpy.linalg import cholesky, eigh, solve, svd

# The kernel's time on the benchmark's reference host (2-vCPU Intel Xeon at
# 2.1 GHz, one BLAS thread): a normalized time reads as a time on that host.
NOMINAL_S = 0.0032

_M = np.random.default_rng(5).standard_normal((40, 40))
_S = _M @ _M.T + 40.0 * np.eye(40)


def openblas_threads():
    """(get, set) of numpy's bundled OpenBLAS thread count, or None if absent."""
    for path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype = ctypes.c_int
                put.argtypes = [ctypes.c_int]
                return get, put
    return None


_THREADS = openblas_threads()


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel, on one BLAS thread."""
    threads = _THREADS[0]() if _THREADS else 1
    if threads != 1:
        _THREADS[1](1)
    start = time.perf_counter()
    for _ in range(4):
        eigh(_S)
        solve(_S, _M)
        cholesky(_S)
        svd(_M)
    elapsed = time.perf_counter() - start
    if threads != 1:
        _THREADS[1](threads)
    return elapsed
