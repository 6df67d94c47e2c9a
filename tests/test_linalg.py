import numpy as np
import pytest

from mfcp import linalg

from helpers import jacobi_eigenvalues


def test_svd_identity():
    res = linalg.thin_svd(np.eye(2))
    assert np.allclose(res.sigma, [1.0, 1.0], atol=0)


def test_svd_rank_one_outer_product():
    u = np.array([2.0, 2.0, 1.0])  # norm 3
    v = np.array([0.6, 0.8])  # norm 1
    res = linalg.thin_svd(np.outer(u, v))
    assert abs(res.sigma[0] - 3.0) < 1e-12
    assert abs(res.sigma[1]) < 1e-12


def test_svd_matches_jacobi_eigen_oracle():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(5, 4))
    evals = jacobi_eigenvalues(a.T @ a)
    sigma = linalg.thin_svd(a).sigma
    assert np.all(np.abs(sigma**2 - evals) <= 1e-8 * np.abs(evals))


def test_svd_determinism():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(8, 6))
    res = linalg.thin_svd(a)
    res2 = linalg.thin_svd(a)
    assert np.array_equal(res.u, res2.u)
    assert np.array_equal(res.vt, res2.vt)


def test_svd_roundtrip_orthonormality_energy():
    rng = np.random.default_rng(3)
    for _ in range(10):
        d, n = rng.integers(2, 65, size=2)
        a = rng.normal(size=(d, n))
        res = linalg.thin_svd(a)
        r = min(d, n)
        assert res.sigma.size == r
        assert np.all(np.diff(res.sigma) <= 0)
        recon = res.reconstruct(r)
        assert np.linalg.norm(a - recon) <= 1e-8 * np.linalg.norm(a)
        assert np.allclose(res.u.T @ res.u, np.eye(r), atol=1e-8)
        assert np.allclose(res.vt @ res.vt.T, np.eye(r), atol=1e-8)
        # energy identity
        fro2 = np.sum(a * a)
        assert abs(np.sum(res.sigma**2) - fro2) <= 1e-10 * fro2


def test_svd_rejects_bad_input():
    with pytest.raises(ValueError):
        linalg.thin_svd(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError):
        linalg.thin_svd(np.zeros((0, 3)))

