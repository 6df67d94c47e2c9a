import logging
import os

import numpy as np
import pytest

from mfcp import linalg

from helpers import jacobi_eigenvalues


def test_svd_identity():
    _, sigma, _ = linalg.thin_svd(np.eye(2))
    assert np.allclose(sigma, [1.0, 1.0], atol=0)


def test_svd_rank_one_outer_product():
    u = np.array([2.0, 2.0, 1.0])  # norm 3
    v = np.array([0.6, 0.8])  # norm 1
    _, sigma, _ = linalg.thin_svd(np.outer(u, v))
    assert abs(sigma[0] - 3.0) < 1e-12
    assert abs(sigma[1]) < 1e-12


def test_svd_matches_jacobi_eigen_oracle():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(5, 4))
    evals = jacobi_eigenvalues(a.T @ a)
    _, sigma, _ = linalg.thin_svd(a)
    assert np.all(np.abs(sigma**2 - evals) <= 1e-8 * np.abs(evals))


def test_svd_determinism():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(8, 6))
    u, _, vt = linalg.thin_svd(a)
    u2, _, vt2 = linalg.thin_svd(a)
    assert np.array_equal(u, u2)
    assert np.array_equal(vt, vt2)


def test_svd_roundtrip_orthonormality_energy():
    rng = np.random.default_rng(3)
    for _ in range(10):
        d, n = rng.integers(2, 65, size=2)
        a = rng.normal(size=(d, n))
        u, sigma, vt = linalg.thin_svd(a)
        r = min(d, n)
        assert sigma.size == r
        assert np.all(np.diff(sigma) <= 0)
        recon = (u[:, :r] * sigma[:r]) @ vt[:r]
        assert np.linalg.norm(a - recon) <= 1e-8 * np.linalg.norm(a)
        assert np.allclose(u.T @ u, np.eye(r), atol=1e-8)
        assert np.allclose(vt @ vt.T, np.eye(r), atol=1e-8)
        # energy identity
        fro2 = np.sum(a * a)
        assert abs(np.sum(sigma**2) - fro2) <= 1e-10 * fro2


def test_svd_rejects_bad_input():
    with pytest.raises(ValueError):
        linalg.thin_svd(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError):
        linalg.thin_svd(np.zeros((0, 3)))



def test_one_blas_thread_pins_nests_and_restores_the_callers_count():
    lib = linalg._openblas()
    if lib is None:
        # a lookup that stops finding an OpenBLAS NumPy reports must fail, not skip
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert "openblas" not in str(blas.get("name")).lower(), blas
        pytest.skip("NumPy's BLAS here is not an OpenBLAS with a known thread-count symbol")
    get, set_ = lib
    before = get()
    try:
        for caller in (2, 1, 3):
            set_(caller)
            with linalg.one_blas_thread():
                assert get() == 1
                with linalg.one_blas_thread():
                    assert get() == 1
                assert get() == 1
            assert get() == caller
        with pytest.raises(ZeroDivisionError), linalg.one_blas_thread():
            1 / 0
        assert get() == caller
    finally:
        set_(before)


def test_one_blas_thread_without_openblas_warns_and_runs_the_block(monkeypatch, caplog):
    monkeypatch.setattr(linalg, "_openblas", lambda: None)
    ran = []
    with caplog.at_level(logging.WARNING, logger="mfcp"), linalg.one_blas_thread():
        ran.append(True)
    assert ran == [True]
    [record] = caplog.records
    assert record.levelno == logging.WARNING and "unpinned" in record.getMessage()


def test_usable_cpus_falls_back_to_cpu_count_without_sched_getaffinity(monkeypatch):
    # os.sched_getaffinity exists on some Unix systems only; elsewhere the
    # count is os.cpu_count(), and 1 when that is None
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3})
    assert linalg.usable_cpus() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    for count, want in ((3, 3), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda count=count: count)
        assert linalg.usable_cpus() == want
