import warnings

import numpy as np
import pytest

from mfcp import data

from helpers import make_pressure_set


def small_set():
    return data.SnapshotSet(
        fields=np.array([[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]]),
        coords=np.array([[0.0], [0.5], [1.0]]),
        params=np.array([[0.1], [0.2]]),
        param_names=["alpha"],
        names=["a", "b"],
    )


def test_snapshot_set_rejects_duplicates():
    with pytest.raises(ValueError):
        data.SnapshotSet(
            fields=np.zeros((2, 2)),
            coords=np.zeros((2, 1)),
            params=np.zeros((2, 1)),
            param_names=["p"],
            names=["x", "x"],
        )


def test_csv_round_trip_hand_file(tmp_path):
    s = small_set()
    path = tmp_path / "set.csv"
    data.save_csv(s, path)
    loaded = data.load_csv(path)
    assert loaded.names == ["a", "b"]
    assert np.array_equal(loaded.fields, s.fields)
    assert np.array_equal(loaded.coords, s.coords)
    assert np.array_equal(loaded.params, s.params)


def test_csv_round_trip_random_bit_exact(tmp_path):
    s = make_pressure_set(7, 11, seed=3)
    path = tmp_path / "r.csv"
    data.save_csv(s, path)
    loaded = data.load_csv(path)
    assert np.array_equal(loaded.fields, s.fields)
    assert np.array_equal(loaded.coords, s.coords)
    assert np.array_equal(loaded.params, s.params)
    assert loaded.param_names == s.param_names


def test_csv_empty_snapshot_list(tmp_path):
    s = data.SnapshotSet(
        fields=np.zeros((3, 0)),
        coords=np.linspace(0, 1, 3)[:, None],
        params=np.zeros((0, 1)),
        param_names=["p"],
        names=[],
    )
    path = tmp_path / "empty.csv"
    data.save_csv(s, path)
    loaded = data.load_csv(path)
    assert loaded.n_snapshots == 0
    assert loaded.n_nodes == 3


def test_csv_rejects_ragged_and_nonnumeric(tmp_path):
    path = tmp_path / "bad.csv"
    params = tmp_path / "bad_params.csv"
    params.write_text("name,p\na,1\n")
    path.write_text("node,x,a\n0,0.0,1.0\n1,0.5\n")
    with pytest.raises(ValueError, match="ragged"):
        data.load_csv(path)
    path.write_text("node,x,a\n0,0.0,oops\n")
    with pytest.raises(ValueError, match="non-numeric"):
        data.load_csv(path)
    path.write_text("node,x,a,a\n0,0.0,1.0,2.0\n")
    with pytest.raises(ValueError, match="duplicate"):
        data.load_csv(path)


def test_split_constant_params_plain_random():
    s = data.SnapshotSet(
        fields=np.zeros((2, 40)),
        coords=np.zeros((2, 1)),
        params=np.ones((40, 2)),
        param_names=["a", "b"],
        names=[f"s{i}" for i in range(40)],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        plan = data.stratified_split(s, hf_fraction=0.5, test_fraction=0.25, seed=1)
    assert len(plan.train_idx) == 15
    assert len(plan.test_idx) == 5
    assert len(plan.complementary_idx) == 20


def test_split_counts_n100():
    s = make_pressure_set(100, 5, seed=0)
    plan = data.stratified_split(s, hf_fraction=0.9999, test_fraction=0.25, seed=3)
    assert len(plan.test_idx) == 25
    assert len(plan.train_idx) == 75


def test_split_disjoint_and_deterministic():
    s = make_pressure_set(80, 6, seed=5)
    p1 = data.stratified_split(s, 0.4, 0.25, seed=9)
    p2 = data.stratified_split(s, 0.4, 0.25, seed=9)
    assert p1.train_idx == p2.train_idx
    assert p1.test_idx == p2.test_idx
    assert p1.complementary_idx == p2.complementary_idx
    assert not set(p1.train_idx) & set(p1.test_idx)
    hf = set(p1.train_idx) | set(p1.test_idx)
    assert not hf & set(p1.complementary_idx)
    assert hf | set(p1.complementary_idx) == set(range(80))


def test_split_stratum_allocation_within_one_sample():
    # balanced 2-parameter grid: every joint stratum same size
    grid = np.array([[a, b] for a in range(9) for b in range(9)], dtype=float)
    n = len(grid)
    s = data.SnapshotSet(
        fields=np.zeros((2, n)),
        coords=np.zeros((2, 1)),
        params=grid,
        param_names=["a", "b"],
        names=[f"g{i}" for i in range(n)],
    )
    plan = data.stratified_split(s, hf_fraction=0.5, test_fraction=0.25, seed=2)
    n_hf = len(plan.train_idx) + len(plan.test_idx)
    global_frac = n_hf / n
    bins = np.stack([np.digitize(grid[:, j], np.quantile(grid[:, j], [1 / 3, 2 / 3]), right=True)
                     for j in range(2)], axis=1)
    hf = set(plan.train_idx) | set(plan.test_idx)
    for key in {tuple(row) for row in bins}:
        members = [i for i in range(n) if tuple(bins[i]) == key]
        got = sum(1 for i in members if i in hf)
        assert abs(got - global_frac * len(members)) <= 1.0


def test_cosine_abscissae_closed_form():
    got = data.cosine_abscissae(5)
    expected = (1.0 - np.cos(np.pi * np.arange(5) / 4.0)) / 2.0
    assert np.array_equal(got, expected)
    assert got[0] == 0.0 and got[-1] == 1.0
    assert abs(got[2] - 0.5) < 1e-15


def test_metrics_examples():
    truth = np.random.default_rng(0).normal(size=(6, 4))
    m = data.metrics(truth, truth)
    assert m == {"mae": 0.0, "rmse": 0.0, "r2": 1.0}
    m = data.metrics(np.full_like(truth, truth.mean()), truth)
    assert abs(m["r2"]) < 1e-12
    m = data.metrics(np.ones((2, 2)), np.ones((2, 2)))
    assert m["r2"] is None


def test_metrics_match_naive_loops():
    rng = np.random.default_rng(6)
    pred, truth = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    m = data.metrics(pred, truth)
    diffs = [pred[i, j] - truth[i, j] for i in range(5) for j in range(3)]
    mae = sum(abs(d) for d in diffs) / len(diffs)
    rmse = (sum(d * d for d in diffs) / len(diffs)) ** 0.5
    tmean = sum(truth[i, j] for i in range(5) for j in range(3)) / 15
    ss_tot = sum((truth[i, j] - tmean) ** 2 for i in range(5) for j in range(3))
    r2 = 1 - sum(d * d for d in diffs) / ss_tot
    assert abs(m["mae"] - mae) <= 1e-12
    assert abs(m["rmse"] - rmse) <= 1e-12
    assert abs(m["r2"] - r2) <= 1e-12
    assert m["rmse"] ** 2 >= m["mae"] ** 2


def test_normalize_none_is_identity():
    s = small_set()
    stats = data.compute_norm_stats(s.fields, "none")
    out = stats.apply(s.fields)
    assert np.array_equal(out, s.fields)
    assert np.array_equal(stats.invert(out), s.fields)


def test_normalize_constant_field_guard():
    fields = np.full((3, 2), 7.5)
    stats = data.compute_norm_stats(fields, "global_minmax")
    out = stats.apply(fields)
    assert not np.any(out)
    assert stats.vmin == stats.vmax == 7.5
    assert np.array_equal(stats.invert(out), fields)


def test_normalize_round_trips():
    s = make_pressure_set(9, 17, seed=8)
    for mode in data.NORM_MODES:
        stats = data.compute_norm_stats(s.fields, mode)
        back = stats.invert(stats.apply(s.fields))
        assert np.max(np.abs(back - s.fields)) <= 1e-12
