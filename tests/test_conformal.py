import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mfcp import conformal, mfae, nn

from helpers import sinusoid_pair_benchmark


def test_modulation_constant_columns_hit_floor():
    res = np.tile([1.0, -2.0, 0.5], (6, 1))
    s = conformal.modulation(res)
    assert np.array_equal(s, np.full(3, conformal.S_FLOOR))


def test_modulation_plus_minus_one():
    s = conformal.modulation(np.array([[-1.0], [1.0]]))
    assert s[0] == 1.0


def test_modulation_matches_two_pass_oracle():
    rng = np.random.default_rng(0)
    res = rng.normal(size=(20, 5))
    s = conformal.modulation(res)
    for j in range(5):
        mean = sum(res[i, j] for i in range(20)) / 20
        var = sum((res[i, j] - mean) ** 2 for i in range(20)) / 20
        assert abs(s[j] - math.sqrt(var)) <= 1e-12 * s[j]
    with pytest.raises(ValueError):
        conformal.modulation(res[:1])


def test_scores_normalized_to_one():
    s = np.array([0.5, 2.0, 1.0])
    res = s[None, :].copy()
    assert conformal.scores(res, s, "linf")[0] == 1.0
    assert abs(conformal.scores(res, s, "normalized_l2")[0] - 1.0) <= 1e-15


def test_scores_single_spike():
    d = 4
    s = np.ones(d)
    res = np.zeros((1, d))
    res[0, 0] = 2.0
    assert conformal.scores(res, s, "linf")[0] == 2.0
    assert abs(conformal.scores(res, s, "normalized_l2")[0] - 2.0 / math.sqrt(d)) <= 1e-15


def test_scores_match_naive_loop():
    rng = np.random.default_rng(1)
    res = rng.normal(size=(8, 6))
    s = rng.uniform(0.5, 2.0, size=6)
    linf = conformal.scores(res, s, "linf")
    nl2 = conformal.scores(res, s, "normalized_l2")
    for i in range(8):
        r = [abs(res[i, j]) / s[j] for j in range(6)]
        assert abs(linf[i] - max(r)) <= 1e-12
        assert abs(nl2[i] - math.sqrt(sum(v * v for v in r) / 6)) <= 1e-12
    with pytest.raises(ValueError):
        conformal.scores(res, s, "l2")


def test_critical_quantile_forced_arithmetic():
    assert conformal.critical_quantile(np.arange(1.0, 10.0), 0.1) == 9.0
    assert conformal.critical_quantile(np.full(7, 3.25), 0.5) == 3.25
    with pytest.raises(ValueError, match="infeasible"):
        conformal.critical_quantile(np.arange(1.0, 10.0), 0.05)


def test_critical_quantile_monotone_in_confidence():
    rng = np.random.default_rng(2)
    scores = rng.exponential(size=40)
    deltas = [0.5, 0.4, 0.3, 0.2, 0.1, 0.05]
    ks = [conformal.critical_quantile(scores, d) for d in deltas]
    assert all(b >= a for a, b in zip(ks, ks[1:]))


def test_band_examples():
    lo, hi = conformal.band(np.zeros(2), np.array([1.0, 2.0]))
    assert np.array_equal(lo, [-1.0, -2.0])
    assert np.array_equal(hi, [1.0, 2.0])
    pred = np.random.default_rng(3).normal(size=5)
    r = np.zeros(5)
    lo, hi = conformal.band(pred, r)
    assert np.array_equal(lo, pred) and np.array_equal(hi, pred)
    r = np.random.default_rng(4).uniform(size=5)
    lo, hi = conformal.band(pred, r)
    assert np.allclose(hi - lo, 2.0 * r, atol=0)


def test_radius_law_exact(tiny_pretrained, monkeypatch):
    # each split's radius is k_s * s: the modulation s of its calibration
    # residuals times the critical quantile k_s of their scores
    model, lf, hf = tiny_pretrained
    tuned, fine_tune = {}, mfae.fine_tune

    def recorded(tuning, *args, **kwargs):
        # the splits run on a thread pool: keyed by their seed [seed, b, 1], not call order
        tuned[tuple(kwargs["seed"])] = tuning
        return fine_tune(tuning, *args, **kwargs)

    monkeypatch.setattr(mfae, "fine_tune", recorded)
    res = conformal.multi_split_calibrate(
        lf[:, :30], hf[:, :30], model, n_splits=2, cal_fraction=0.3,
        delta=0.2, kind="linf", patience=10, seed=5, max_epochs=40,
    )
    assert len(tuned) == len(res.splits) == 2
    for b, rec in enumerate(res.splits):
        tuning = tuned[(5, b, 1)]
        residuals = (hf[:, rec.cal_idx] - mfae.predict(tuning, lf[:, rec.cal_idx])).T
        s = conformal.modulation(residuals)
        k_s = conformal.critical_quantile(conformal.scores(residuals, s, "linf"), delta=0.2)
        assert rec.critical_quantile == k_s
        assert np.array_equal(rec.radius, k_s * s)


def test_scale_equivariance_power_of_two():
    rng = np.random.default_rng(6)
    res = rng.normal(size=(10, 4))
    s = rng.uniform(0.5, 2.0, size=4)
    for kind in conformal.SCORE_KINDS:
        base = conformal.scores(res, s, kind)
        # res and s scaled together: scores unchanged (c = power of two)
        assert np.array_equal(conformal.scores(4.0 * res, 4.0 * s, kind), base)
        # res alone scaled: every score scales by exactly c
        assert np.array_equal(conformal.scores(2.0 * res, s, kind), 2.0 * base)
        assert np.array_equal(conformal.scores(0.25 * res, s, kind), 0.25 * base)


def test_coverage_examples():
    pred = np.zeros((4, 3))
    lo, hi = pred - 1.0, pred + 1.0
    stats = conformal.coverage(lo, hi, pred)
    assert stats.nominal == 1.0 and stats.pointwise == 1.0
    assert stats.width_mean == 2.0 and stats.width_std == 0.0

    # 22 snapshots, exactly one fully covered
    truths = np.full((22, 2), 5.0)
    truths[0] = 0.0
    stats = conformal.coverage(np.full((22, 2), -1.0), np.full((22, 2), 1.0), truths)
    assert abs(stats.nominal - 1.0 / 22.0) <= 1e-15

    # half the components inside per snapshot
    truths = np.tile([0.0, 9.0], (6, 1))
    stats = conformal.coverage(np.full((6, 2), -1.0), np.full((6, 2), 1.0), truths)
    assert stats.nominal == 0.0 and stats.pointwise == 0.5

    # bounds are (n, D) like the truths, not one (D,) row for all
    with pytest.raises(ValueError, match="one shape"):
        conformal.coverage(np.full(2, -1.0), np.full(2, 1.0), truths)


def test_coverage_boundary_counts_as_covered():
    stats = conformal.coverage(np.zeros((1, 2)), np.ones((1, 2)), np.array([[0.0, 1.0]]))
    assert stats.nominal == 1.0


@pytest.fixture(scope="module")
def tiny_pretrained():
    lf, hf, _ = sinusoid_pair_benchmark(70, 16, 24, seed=20)
    cfg = mfae.MfaeConfig(
        d_lf=16, d_hf=24, encoder_widths=[12], latent_dim=2, decoder_widths=[12],
        seed=9, pretrain_epochs=400, learning_rate=3e-3,
    )
    model = mfae.pretrain(cfg, lf)
    return model, lf, hf


def test_multi_split_single_split_is_its_own_median(tiny_pretrained):
    model, lf, hf = tiny_pretrained
    res = conformal.multi_split_calibrate(
        lf[:, :50], hf[:, :50], model, n_splits=1, cal_fraction=0.3,
        delta=0.1, kind="linf", patience=20, seed=1, max_epochs=150,
    )
    assert np.array_equal(res.radius, res.splits[0].radius)
    assert res.epoch == res.splits[0].epoch
    assert len(res.splits) == 1
    rec = res.splits[0]
    assert not set(rec.train_idx) & set(rec.cal_idx)
    assert sorted(rec.train_idx + rec.cal_idx) == list(range(50))


def test_multi_split_median_aggregation(tiny_pretrained):
    model, lf, hf = tiny_pretrained
    res = conformal.multi_split_calibrate(
        lf[:, :50], hf[:, :50], model, n_splits=4, cal_fraction=0.3,
        delta=0.1, kind="normalized_l2", patience=20, seed=2, max_epochs=150,
    )
    radii = np.stack([rec.radius for rec in res.splits])
    # component-wise sort-and-average-middle-two oracle for even B
    for j in range(radii.shape[1]):
        col = sorted(radii[:, j])
        assert abs(res.radius[j] - 0.5 * (col[1] + col[2])) <= 1e-15
    assert res.epoch == math.ceil(float(np.median([rec.epoch for rec in res.splits])))
    # trivially: odd-count median of {1,2,3} picks the middle value
    assert np.median(np.array([[1.0], [2.0], [3.0]]), axis=0)[0] == 2.0


def test_multi_split_deterministic(tiny_pretrained):
    model, lf, hf = tiny_pretrained
    kwargs = dict(n_splits=3, cal_fraction=0.3, delta=0.1, kind="linf",
                  patience=15, seed=3, max_epochs=100)
    a = conformal.multi_split_calibrate(lf[:, :50], hf[:, :50], model, **kwargs)
    b = conformal.multi_split_calibrate(lf[:, :50], hf[:, :50], model, **kwargs)
    assert np.array_equal(a.radius, b.radius)
    assert [rec.epoch for rec in a.splits] == [rec.epoch for rec in b.splits]


def test_multi_split_bits_do_not_depend_on_the_worker_count(tiny_pretrained, monkeypatch):
    # the pool has one worker per CPU this process may use: one CPU runs the
    # splits in order on one worker; six, more than this host's cores, switch
    # threads every microsecond
    model, lf, hf = tiny_pretrained
    kwargs = dict(n_splits=6, cal_fraction=0.3, delta=0.2, kind="normalized_l2",
                  patience=10, seed=7, max_epochs=60)
    sizes = []

    def pool(workers):
        sizes.append(workers)
        return ThreadPoolExecutor(workers)

    monkeypatch.setattr(conformal, "ThreadPoolExecutor", pool)
    runs = []
    for cpus in ({0}, set(range(6))):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            res = conformal.multi_split_calibrate(lf[:, :40], hf[:, :40], model, **kwargs)
        finally:
            sys.setswitchinterval(interval)
        runs.append((res.radius.tobytes(), res.epoch,
                     [(rec.cal_idx, rec.epoch, rec.radius.tobytes()) for rec in res.splits]))
    assert sizes == [1, 6]
    assert runs[0] == runs[1]
    # in split order: each record holds the calibration fold of its own stream (seed, b)
    for b, (cal_idx, _, _) in enumerate(runs[0][2]):
        perm = np.random.default_rng([7, b]).permutation(40)
        assert cal_idx == sorted(perm[:12].tolist())


def test_multi_split_raises_the_first_diverged_split_in_split_order(tiny_pretrained,
                                                                    monkeypatch):
    model, lf, hf = tiny_pretrained
    fine_tune = mfae.fine_tune

    def diverging(tuning, *args, **kwargs):
        b = kwargs["seed"][1]
        if b in (1, 2):
            raise nn.TrainingDiverged(10 + b)
        return fine_tune(tuning, *args, **kwargs)

    monkeypatch.setattr(mfae, "fine_tune", diverging)
    with pytest.raises(nn.TrainingDiverged) as err:
        conformal.multi_split_calibrate(
            lf[:, :40], hf[:, :40], model, n_splits=4, cal_fraction=0.3,
            delta=0.2, kind="linf", patience=10, seed=8, max_epochs=30,
        )
    assert err.value.epoch == 11 and str(err.value) == "split 1 diverged at epoch 11"
    assert isinstance(err.value.__cause__, nn.TrainingDiverged)


def test_multi_split_rejects_infeasible_delta(tiny_pretrained):
    model, lf, hf = tiny_pretrained
    with pytest.raises(ValueError, match="too few"):
        conformal.multi_split_calibrate(
            lf[:, :20], hf[:, :20], model, n_splits=2, cal_fraction=0.3,
            delta=0.05, kind="linf", patience=10, seed=4, max_epochs=50,
        )
