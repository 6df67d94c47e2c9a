import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfcp import linalg, lofi
from mfcp.lofi import (
    Bias,
    DegradationRecipe,
    Fps,
    KnnAverage,
    Noise,
    PodTruncate,
    Quantize,
    Voxelize,
)

from helpers import make_pressure_set, traced_peak


def test_pod_rank_one_is_exact():
    x = np.outer(np.arange(1.0, 5.0), np.array([2.0, -1.0, 3.0]))
    x_r, r_star, _ = lofi.pod_truncate(x, 0.5)
    assert r_star == 1
    assert np.max(np.abs(x_r - x)) <= 1e-10


def test_pod_forced_threshold_arithmetic():
    # singular values {3, 1}: cumulative energy ratios {0.9, 1.0}
    x = np.diag([3.0, 1.0])
    x_r, r_star, retained = lofi.pod_truncate(x, 0.9)
    assert r_star == 1
    assert retained == 0.9
    assert np.allclose(x_r, [[3.0, 0.0], [0.0, 0.0]], atol=1e-12)
    _, r_full, retained = lofi.pod_truncate(x, 0.95)
    assert r_full == 2
    assert retained == 1.0


def test_pod_energy_one_returns_full_rank():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 4))
    x_r, r_star, _ = lofi.pod_truncate(x, 1.0)
    assert r_star == 4
    assert np.max(np.abs(x_r - x)) <= 1e-12


# the seed whose first draw, over 4 points and over 11, is point 0
START_AT_0 = 23


def test_fps_all_points_greedy_order():
    pts = np.array([[0.0], [1.0], [4.0], [9.0]])
    idx = lofi.fps(pts, 4, seed=START_AT_0)
    assert sorted(idx) == [0, 1, 2, 3]
    assert idx[0] == 0 and idx[1] == 3  # farthest from 0 is 9


def test_fps_colinear_forced_selection():
    pts = np.arange(11.0)[:, None]
    assert lofi.fps(pts, 3, seed=START_AT_0) == [0, 10, 5]


def test_fps_seeded_start_reproducible():
    pts = np.random.default_rng(1).normal(size=(30, 3))
    a = lofi.fps(pts, 10, seed=99)
    b = lofi.fps(pts, 10, seed=99)
    assert a == b


def test_fps_each_step_is_argmax_min():
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(40, 3))
    idx = lofi.fps(pts, 8, seed=3)
    for step in range(1, 8):
        chosen = idx[:step]
        best_val, best_i = -1.0, None
        for i in range(40):
            min_d = min(((pts[i] - pts[j]) ** 2).sum() for j in chosen)
            if min_d > best_val:
                best_val, best_i = min_d, i
        assert idx[step] == best_i


def test_knn_identity_with_k1():
    pts = np.random.default_rng(2).normal(size=(10, 2))
    vals = np.random.default_rng(3).normal(size=(10, 2))
    out = lofi.knn_average(pts, vals, centers=[4, 7], k=1)
    assert np.array_equal(out[0], vals[4])
    assert np.array_equal(out[1], vals[7])


def test_knn_two_points_mean():
    pts = np.array([[0.0], [1.0]])
    vals = np.array([[0.0], [4.0]])
    out = lofi.knn_average(pts, vals, centers=[0, 1], k=2)
    assert np.array_equal(out, [[2.0], [2.0]])


def test_knn_matches_full_sort_oracle():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(25, 3))
    vals = rng.normal(size=(25, 2))
    centers = [0, 5, 11, 24]
    out = lofi.knn_average(pts, vals, centers, k=5)
    for row, c in enumerate(centers):
        d = [((pts[c] - pts[j]) ** 2).sum() for j in range(25)]
        nearest = sorted(range(25), key=lambda j: (d[j], j))[:5]
        expected = vals[nearest].mean(axis=0)
        assert np.array_equal(out[row], expected)


@pytest.mark.parametrize("n_values, centers, message", [
    (6, [0], r"values has 6 rows, expected one per point \(5\)"),
    (4, [0], r"values has 4 rows, expected one per point \(5\)"),
    (5, [0, -1], r"centers must be a list of point indices in 0\.\.4"),
    (5, [5], r"centers must be a list of point indices in 0\.\.4"),
    (5, [1.0], r"centers must be a list of point indices in 0\.\.4"),
    (5, [[0, 1]], r"centers must be a list of point indices in 0\.\.4"),
], ids=["more-value-rows", "fewer-value-rows", "negative-center", "center-past-the-end",
        "float-center", "nested-centers"])
def test_knn_refuses_values_and_centers_that_do_not_fit_the_points(n_values, centers, message):
    pts = np.random.default_rng(7).normal(size=(5, 3))
    with pytest.raises(ValueError, match=message):
        lofi.knn_average(pts, np.ones((n_values, 2)), centers, k=2)


def test_knn_accepts_no_centers_and_repeated_centers():
    pts = np.random.default_rng(7).normal(size=(5, 2))
    vals = np.arange(10.0).reshape(5, 2)
    assert lofi.knn_average(pts, vals, [], k=2).shape == (0, 2)
    out = lofi.knn_average(pts, vals, np.array([3, 3]), k=1)
    assert np.array_equal(out, vals[[3, 3]])


# --- the selection kernels against their full-sort forms ---------------------
#
# fps and knn_average build their distances one coordinate column at a time
# and select with a partition; these are their forms before that, kept to
# pin the bits: every pick, tie and mean must be the same.


def reference_fps(points, m, seed):
    start = int(np.random.default_rng(seed).integers(points.shape[0]))
    selected = [start]
    min_sq = ((points - points[start]) ** 2).sum(axis=1)
    while len(selected) < m:
        nxt = int(np.argmax(min_sq))
        selected.append(nxt)
        min_sq = np.minimum(min_sq, ((points - points[nxt]) ** 2).sum(axis=1))
    return selected


def reference_knn_average(points, values, centers, k):
    out = np.empty((len(centers), values.shape[1]))
    for row, c in enumerate(centers):
        sq = ((points - points[c]) ** 2).sum(axis=1)
        nearest = np.argsort(sq, kind="stable")[:k]
        out[row] = values[nearest].mean(axis=0)
    return out


@st.composite
def clouds(draw):
    """An (n, c) cloud with c in 1..3: any finite doubles (their distances
    may overflow to inf), or coordinates on a coarse grid; either with some
    points repeated. Grids and repeats make distances tie."""
    n, c = draw(st.integers(1, 40)), draw(st.integers(1, 3))
    free = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-10.0, 10.0))
    grid = st.integers(-3, 3).map(lambda i: 0.5 * i)
    cell = free if draw(st.booleans()) else grid
    points = np.array(draw(st.lists(cell, min_size=n * c, max_size=n * c))).reshape(n, c)
    if draw(st.booleans()):
        points = points[draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))]
    return points


def counts(n):
    """1, n, or any count in between."""
    return st.one_of(st.just(1), st.just(n), st.integers(1, n))


@settings(max_examples=100, deadline=None)
@given(points=clouds())
def test_distances_match_the_row_sum_bitwise(points):
    # a different summation order moves last bits, which only rarely
    # changes a pick, so the distances are compared directly
    n = points.shape[0]
    cols = [points[:, j].copy() for j in range(points.shape[1])]
    with np.errstate(over="ignore"):
        for i in range(n):
            got = lofi._sq_dist(cols, i, np.empty(n), np.empty(n))
            want = ((points - points[i]) ** 2).sum(axis=1)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=300, deadline=None)
@given(data_=st.data(), points=clouds(), seed=st.integers(0, 2**32 - 1))
def test_fps_matches_the_full_form_bitwise(data_, points, seed):
    m = data_.draw(counts(points.shape[0]))
    with np.errstate(over="ignore"):
        assert lofi.fps(points, m, seed) == reference_fps(points, m, seed)


@settings(max_examples=300, deadline=None)
@given(data_=st.data(), points=clouds(), seed=st.integers(0, 2**32 - 1))
def test_knn_average_matches_the_full_sort_bitwise(data_, points, seed):
    n = points.shape[0]
    k = data_.draw(counts(n))
    centers = data_.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    values = np.random.default_rng(seed).normal(size=(n, data_.draw(st.integers(1, 3))))
    with np.errstate(over="ignore"):
        got = lofi.knn_average(points, values, centers, k)
        want = reference_knn_average(points, values, centers, k)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_voxelize_single_cell_example():
    centers, means = lofi.voxelize(np.array([[0.1], [0.9]]), np.array([[1.0], [3.0]]), size=1.0)
    assert np.array_equal(centers, [[0.5]])
    assert np.array_equal(means, [[2.0]])


def test_voxelize_fine_grid_is_identity():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 1, size=(12, 3))
    gaps = np.sqrt([((pts[i] - pts[j]) ** 2).sum() for i in range(12) for j in range(i + 1, 12)])
    size = 0.5 * gaps.min() / np.sqrt(3)
    centers, means = lofi.voxelize(pts, np.arange(12.0)[:, None], size)
    assert centers.shape[0] == 12
    # cells are singletons, so the means are the original values in cell order
    assert sorted(means[:, 0]) == sorted(range(12))


def test_voxelize_matches_brute_force_binning():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(60, 3))
    vals = rng.normal(size=(60, 2))
    size = 0.8
    centers, means = lofi.voxelize(pts, vals, size)
    cells = {}
    for i in range(60):
        key = tuple(int(np.floor(pts[i, k] / size)) for k in range(3))
        cells.setdefault(key, []).append(i)
    assert centers.shape[0] == len(cells)
    for key in sorted(cells):
        members = cells[key]
        expected_center = (np.array(key) + 0.5) * size
        row = np.where((np.abs(centers - expected_center) < 1e-12).all(axis=1))[0]
        assert row.size == 1
        expected_mean = np.add.reduce(vals[members], axis=0) / len(members)
        assert np.array_equal(means[row[0]], expected_mean)


def test_knn_and_voxelize_reject_a_value_vector():
    pts = np.random.default_rng(7).normal(size=(5, 3))
    for values in (np.ones(5), np.ones((5, 1, 1))):
        with pytest.raises(ValueError, match=r"values must be an \(n, m\) matrix, got shape"):
            lofi.knn_average(pts, values, [0, 1], k=2)
        with pytest.raises(ValueError, match=r"values must be an \(n, m\) matrix, got shape"):
            lofi.voxelize(pts, values, 1.0)


def test_quantize_examples_and_idempotence():
    assert np.array_equal(lofi.quantize(np.array([0.0, 0.3, 1.0]), 2), [0.0, 0.0, 1.0])
    aligned = np.array([0.0, 0.5, 1.0])
    assert np.array_equal(lofi.quantize(aligned, 3), aligned)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(7, 5))
    q1 = lofi.quantize(x, 6)
    q2 = lofi.quantize(q1, 6)
    assert np.array_equal(q1, q2)
    assert len(np.unique(q1)) <= 6


def test_quantize_midpoint_rounds_down():
    out = lofi.quantize(np.array([0.0, 0.5, 2.0]), 3)  # levels {0, 1, 2}
    assert np.array_equal(out, [0.0, 0.0, 2.0])


def test_quantize_rejects_levels_outside_the_bound():
    x = np.array([0.0, 0.3, 1.0])
    for levels in (1, lofi.MAX_LEVELS + 1, 10**15):
        with pytest.raises(ValueError, match=f"levels must be in 2..1048576, got {levels}$"):
            lofi.quantize(x, levels)
    q = lofi.quantize(x, lofi.MAX_LEVELS)
    assert q[0] == 0.0 and q[2] == 1.0
    assert abs(q[1] - 0.3) <= 0.5 / (lofi.MAX_LEVELS - 1)


def test_quantize_constant_input_unchanged():
    x = np.full((3, 3), 4.2)
    assert np.array_equal(lofi.quantize(x, 5), x)


def test_perturb_identity_and_bias():
    x = np.random.default_rng(9).normal(size=(4, 4))
    assert np.array_equal(lofi.perturb(x, 0.0, 0.0, seed=1), x)
    assert np.array_equal(lofi.perturb(x, 0.0, 5.0, seed=1), x + 5.0)


def test_perturb_moment_bounds():
    x = np.zeros((100, 1000))
    out = lofi.perturb(x, 1.0, 0.3, seed=42)
    assert abs(out.mean() - 0.3) < 0.02
    assert abs(out.std() - 1.0) < 0.02


def test_recipe_json_round_trip():
    recipe = DegradationRecipe([
        PodTruncate(energy=0.9),
        Fps(m=10, seed=3),
        KnnAverage(m=8, k=2, seed=None),
        Voxelize(size=0.5),
        Quantize(levels=16),
        Noise(sigma=0.01, seed=7),
        Bias(offset=-0.2),
    ])
    clone = DegradationRecipe.from_json(recipe.to_json())
    assert clone == recipe


@pytest.mark.parametrize("stage, message", [
    ({"kind": "quantize", "levels": True}, "field 'levels' must be int, got True"),
    ({"kind": "quantize", "levels": 8.0}, "field 'levels' must be int, got 8.0"),
    ({"kind": "bias", "offset": False}, "field 'offset' must be float, got False"),
    ({"kind": "voxelize", "size": 0.5, "pca_align": True},
     "(voxelize): unknown field 'pca_align'"),
    ({"kind": "noise", "sigma": None}, "field 'sigma' must be float, got None"),
    ({"kind": "knn_average", "m": 4}, "missing field(s) ['k']"),
    ({"kind": "blur"}, "recipe stage 1: unknown kind 'blur'"),
    ({"m": 4}, "recipe stage 1: unknown kind None"),
    ("fps", "recipe stage 1: expected an object, got 'fps'"),
], ids=["bool-for-int", "float-for-int", "bool-for-float", "removed-pca-align", "null-for-float",
        "missing-field", "unknown-kind", "no-kind", "not-an-object"])
def test_recipe_from_json_checks_each_field(stage, message):
    doc = json.dumps({"stages": [{"kind": "bias", "offset": 1}, stage]})
    with pytest.raises(ValueError) as exc:
        DegradationRecipe.from_json(doc)
    assert message in str(exc.value)
    assert "recipe stage 1" in str(exc.value)


def test_recipe_from_json_accepts_ints_for_floats_and_null_seeds():
    doc = '{"stages": [{"kind": "pod_truncate", "energy": 1}, {"kind": "fps", "m": 3, "seed": null}]}'
    assert DegradationRecipe.from_json(doc) == DegradationRecipe([PodTruncate(energy=1),
                                                                  Fps(m=3, seed=None)])


def test_apply_recipe_matches_direct_chain_of_every_stage_kind():
    s = make_pressure_set(9, 60, seed=13)
    recipe = DegradationRecipe([
        PodTruncate(energy=0.95),
        Fps(m=40, seed=3),
        KnnAverage(m=20, k=3, seed=4),
        Voxelize(size=0.07),
        Quantize(levels=32),
        Noise(sigma=0.01, seed=5),
        Bias(offset=-0.25),
    ])
    out, prov = lofi.apply_recipe(s, recipe, master_seed=99)

    # indexing rather than unpacking the truncation result, and the retained
    # energy recomputed from the singular values, so that this oracle does
    # not lean on pod_truncate's provenance
    pod = lofi.pod_truncate(s.fields, 0.95)
    f, r_star = pod[0], pod[1]
    _, sigma, _ = linalg.thin_svd(s.fields)
    cum = np.cumsum(sigma ** 2)
    retained = float((cum / cum[-1])[r_star - 1])
    mask = lofi.fps(s.coords, 40, 3)
    f, c = f[mask], s.coords[mask]
    centers = lofi.fps(c, 20, 4)
    f, c = lofi.knn_average(c, f, centers, 3), c[centers]
    c, f = lofi.voxelize(c, f, 0.07)
    n_cells = c.shape[0]
    f = lofi.quantize(f, 32)
    f = lofi.perturb(f, 0.01, 0.0, 5)
    f = lofi.perturb(f, 0.0, -0.25, 0)

    assert 1 < n_cells < 20  # the voxel stage merges some nodes and keeps others apart
    assert np.array_equal(out.fields, f)
    assert np.array_equal(out.coords, c)
    assert np.array_equal(out.params, s.params) and out.names == s.names
    assert prov == {"stages": [
        {"kind": "pod_truncate", "r_star": r_star, "retained_energy": retained},
        {"kind": "fps", "mask": mask},
        {"kind": "knn_average", "mask": centers},
        {"kind": "voxelize", "n_cells": n_cells},
        {"kind": "quantize", "levels": 32},
        {"kind": "noise", "sigma": 0.01},
        {"kind": "bias", "offset": -0.25},
    ]}


@pytest.mark.parametrize("stages", [
    [], [Quantize(levels=16), Bias(offset=0.5)], [Fps(m=10, seed=1)],
], ids=["empty", "precision-only", "resolution"])
def test_apply_recipe_output_shares_no_memory_with_its_input(stages):
    s = make_pressure_set(6, 30, seed=4)
    out, _ = lofi.apply_recipe(s, DegradationRecipe(stages))
    for name in ("fields", "coords", "params"):
        assert not np.shares_memory(getattr(out, name), getattr(s, name))


def test_apply_recipe_holds_its_input_fields_once():
    # the first stage reads the input fields in place, so the recipe's peak is
    # the stage's own plus the finiteness mask, not that plus a copy
    s = make_pressure_set(40, 2000, seed=5)
    stage = traced_peak(lambda: lofi.perturb(s.fields, 0.0, 0.5, 0))
    recipe = traced_peak(lambda: lofi.apply_recipe(s, DegradationRecipe([Bias(offset=0.5)])))
    assert recipe < stage + s.fields.nbytes / 2


def test_recipe_replay_bit_identical():
    s = make_pressure_set(12, 40, seed=10)
    recipe = DegradationRecipe([PodTruncate(energy=0.9), Fps(m=16, seed=None), Noise(sigma=0.01)])
    out1, prov1 = lofi.apply_recipe(s, recipe, master_seed=5)
    out2, prov2 = lofi.apply_recipe(s, recipe, master_seed=5)
    assert np.array_equal(out1.fields, out2.fields)
    assert np.array_equal(out1.coords, out2.coords)
    assert prov1 == prov2
    out3, _ = lofi.apply_recipe(s, recipe, master_seed=6)
    assert not np.array_equal(out1.fields, out3.fields)


def test_recipe_provenance_records_mask_and_modes():
    s = make_pressure_set(20, 50, seed=11)
    recipe = DegradationRecipe([PodTruncate(energy=0.96), Fps(m=20, seed=1)])
    out, prov = lofi.apply_recipe(s, recipe, master_seed=0)
    assert out.n_nodes == 20
    assert out.n_snapshots == 20
    pod, fps_stage = prov["stages"]
    assert pod["r_star"] >= 1
    assert pod["retained_energy"] >= 0.96
    assert len(fps_stage["mask"]) == 20
    with pytest.raises(ValueError):
        lofi.pod_truncate(s.fields, 0.0)


def test_wing_scale_recipe_on_synthetic_stand_in():
    # 0.96 modal energy plus a 4000-node mask over a larger surrogate mesh
    rng = np.random.default_rng(12)
    d, n = 4500, 24
    coords = rng.uniform(-1.0, 1.0, size=(d, 3))
    basis = rng.normal(size=(d, 6))
    fields = basis @ rng.normal(size=(6, n)) + 0.05 * rng.normal(size=(d, n))
    s = lofi.SnapshotSet(
        fields=fields, coords=coords,
        params=rng.uniform(size=(n, 2)), param_names=["mach", "alpha"],
        names=[f"w{i:03d}" for i in range(n)],
    )
    recipe = DegradationRecipe([PodTruncate(energy=0.96), Fps(m=4000, seed=2)])
    out, prov = lofi.apply_recipe(s, recipe, master_seed=3)
    assert out.n_nodes == 4000
    pod, fps_stage = prov["stages"]
    assert pod["retained_energy"] >= 0.96
    assert len(fps_stage["mask"]) == 4000
    assert len(set(fps_stage["mask"])) == 4000
