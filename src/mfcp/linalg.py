"""Dense real-matrix primitives: an input check and the thin SVD.

Everything operates on float64 ndarrays and is deterministic for a fixed
input on a fixed platform.
"""

import numpy as np


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
