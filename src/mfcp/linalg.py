"""Dense real-matrix primitives: an input check and the thin SVD.

Everything operates on float64 ndarrays and is deterministic for a fixed
input on a fixed platform.
"""

from dataclasses import dataclass

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


@dataclass
class SvdResult:
    """Thin SVD factors: ``u @ diag(sigma) @ vt`` reconstructs the input.

    ``u`` is (D, r), ``sigma`` is (r,) nonincreasing and nonnegative,
    ``vt`` is (r, N), with r = min(D, N).
    """

    u: np.ndarray
    sigma: np.ndarray
    vt: np.ndarray

    def reconstruct(self, rank):
        """The rank-`rank` truncation of the decomposed matrix."""
        return (self.u[:, :rank] * self.sigma[:rank]) @ self.vt[:rank]


def thin_svd(a) -> SvdResult:
    """Thin singular value decomposition; `sigma` comes back nonincreasing
    from LAPACK, and the singular vectors keep LAPACK's signs."""
    a = check_matrix(a, "a")
    try:
        u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"SVD failed to converge; defective input? ({exc})")
    return SvdResult(u=u, sigma=sigma, vt=vt)
