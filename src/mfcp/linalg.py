"""Dense real-matrix primitives: thin SVD and PCA axes.

Everything operates on float64 ndarrays and is deterministic for a fixed
input on a fixed platform.
"""

import warnings
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
    """Thin singular value decomposition with a fixed sign convention.

    Each left singular vector is flipped so that its largest-magnitude
    entry is positive, which stabilizes golden tests across runs.
    """
    a = check_matrix(a, "a")
    try:
        u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"SVD failed to converge; defective input? ({exc})")
    for k in range(sigma.size):
        j = np.argmax(np.abs(u[:, k]))
        if u[j, k] < 0.0:
            u[:, k] = -u[:, k]
            vt[k, :] = -vt[k, :]
    if np.any(np.diff(sigma) > 0):
        raise AssertionError("singular values not sorted nonincreasing")
    return SvdResult(u=u, sigma=sigma, vt=vt)


def pca_axes(points):
    """Centroid and principal axes of a point cloud.

    Returns ``(centroid, rotation)`` where the columns of ``rotation`` are
    unit eigenvectors of the sample covariance in descending-eigenvalue
    order, with the last axis flipped if needed so det(rotation) = +1.
    A fully degenerate cloud (all points coincident) yields the identity
    rotation and a warning.
    """
    p = check_matrix(points, "points", max_cols=3)
    n, c = p.shape
    if n < 2:
        raise ValueError("pca_axes needs at least 2 points")
    centroid = p.mean(axis=0)
    centered = p - centroid
    cov = (centered.T @ centered) / (n - 1)
    if not np.any(cov):
        warnings.warn("degenerate point cloud: all points coincident; using identity axes")
        return centroid, np.eye(c)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    rotation = evecs[:, order]
    if np.linalg.det(rotation) < 0:
        rotation[:, -1] = -rotation[:, -1]
    return centroid, rotation
