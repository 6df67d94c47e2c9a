"""Dense real-matrix primitives: an input check, the thin SVD, a pin of
the BLAS to one thread and the count of CPUs this process may use.

Everything operates on float64 ndarrays and is deterministic for a fixed
input on a fixed platform. OpenBLAS splits some matrix products
differently with one thread than with two, so the last bits of a product
depend on its thread count; `one_blas_thread` fixes it at one.
"""

import contextlib
import ctypes
import functools
import logging
import os

import numpy as np

log = logging.getLogger("mfcp")


def check_matrix(a, name="matrix", max_cols=None):
    """Validate and return a 2-D float64 array with finite entries."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if a.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    if max_cols is not None and a.shape[1] > max_cols:
        raise ValueError(f"{name} must have at most {max_cols} columns, got {a.shape[1]}")
    return a


def thin_svd(a):
    """Thin SVD `(u, sigma, vt)` of a (D, N) matrix, r = min(D, N): `u` is
    (D, r), `sigma` (r,) nonincreasing and `vt` (r, N), so `(u * sigma) @ vt`
    reconstructs the input. The singular vectors keep LAPACK's signs."""
    a = check_matrix(a, "a")
    try:
        return np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"SVD failed to converge; defective input? ({exc})")


@functools.cache
def _openblas():
    """(get, set) of the thread count of the OpenBLAS that NumPy loaded, or None.

    /proc/self/maps names the loaded library (Linux); a NumPy wheel ships it
    as numpy.libs/libscipy_openblas64_*.so, whose symbols carry the
    scipy_ prefix and the 64_ suffix of its 64-bit integer interface."""
    paths = set()
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                # address, perms, offset, device, inode, then a path that may hold spaces
                fields = line.split(maxsplit=5)
                if len(fields) == 6 and "openblas" in fields[5].lower():
                    paths.add(fields[5].rstrip("\n"))
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapping whose file is gone, "... (deleted)"
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with NumPy's OpenBLAS on one thread, then restore the
    caller's count. The bytes of every product then do not depend on
    OPENBLAS_NUM_THREADS, and threads of the caller's own do not oversubscribe
    the cores. Blocks nest. Where no known OpenBLAS symbol exists (MKL,
    Accelerate, no /proc/self/maps), it logs one warning and runs the block
    unpinned."""
    lib = _openblas()
    if lib is None:
        log.warning("no OpenBLAS thread-count symbol found; the BLAS runs unpinned, "
                    "and the last bits of its products may depend on its thread setting")
        yield
        return
    get, set_ = lib
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def usable_cpus():
    """The number of CPUs this process may use: its affinity mask where the
    platform has one (`os.sched_getaffinity` exists on some Unix systems
    only, not macOS or Windows), else `os.cpu_count()`, else 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # None when the count is unknown
