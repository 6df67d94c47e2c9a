"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria with runtime limits assert their own wall time.
"""

import hashlib
import json
import math
import os
import time

import numpy as np
import pytest

from mfcp import cli, conformal, lofi, mfae, nn
from mfcp.cli import PipelineConfig, dump_config
from mfcp.data import load_csv, save_csv
from mfcp.lofi import DegradationRecipe, Fps, PodTruncate

from helpers import (
    finite_diff_probe,
    make_pressure_set,
    params_digest,
    rel_err,
    sinusoid_pair_benchmark,
)


def file_digest(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


# --- A1 gradient correctness --------------------------------------------------


def test_a1_gradient_correctness():
    start = time.time()
    rng = np.random.default_rng(1)

    def autoencoder_stack(d, widths, latent, seed):
        enc = nn.Mlp.from_widths([d, *widths, latent], seed=[seed, 0])
        dec = nn.Mlp.from_widths([latent, *widths[::-1], d], seed=[seed, 1])
        return nn.stack(enc, dec)

    def transfer_stack(d_lf, d_hf, widths, latent, up_hidden, seed):
        # what fine_tune trains: the decoder and up-scaler, on the latents
        dec = nn.Mlp.from_widths([latent, *widths[::-1], d_lf], seed=[seed, 1])
        ups = nn.Mlp.from_widths([d_lf, up_hidden, d_hf], seed=[seed, 2])
        return nn.stack(dec, ups)

    configs = [
        ("autoencoder 16-12-2", autoencoder_stack(16, [12], 2, 7), 16),
        ("transfer 16->24 decoder + up-scaler", transfer_stack(16, 24, [12], 2, 24, 8), 2),
        ("airfoil-shaped 40->260", transfer_stack(40, 260, [64, 32, 16], 3, 60, 9), 3),
    ]
    for name, net, d_in in configs:
        x = rng.normal(size=(6, d_in))
        y = rng.normal(size=(6, net.layers[-1].n_out))
        pairs = finite_diff_probe(net, x, y, probes_per_layer=10, seed=11)
        assert len(pairs) >= 10 * len(net.layers)
        worst = max(rel_err(a, b) for a, b in pairs)
        assert worst <= 1e-5, f"{name}: worst rel err {worst}"
    elapsed = time.time() - start
    assert elapsed <= 30.0
    print(f"\n[A1] PASS gradient check on {len(configs)} architectures "
          f"(worst-case rel err <= 1e-5, {elapsed:.1f}s)")


# --- A2 optimizer oracle -------------------------------------------------------


def test_a2_adam_matches_scripted_transcript():
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    target = 1.5

    # independent scalar transcript
    theta_ref, m, v = 5.0, 0.0, 0.0
    transcript = []
    for t in range(1, 201):
        g = 2.0 * (theta_ref - target)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta_ref = theta_ref - lr * m_hat / (math.sqrt(v_hat) + eps)
        transcript.append(theta_ref)

    theta = np.array([5.0])
    state = nn.AdamState([theta], lr)
    for t in range(200):
        nn.adam_step(state, [theta], [np.array([2.0 * (theta[0] - target)])])
        assert abs(theta[0] - transcript[t]) <= 1e-12, f"step {t + 1}"
    print("\n[A2] PASS 200 Adam steps match the scalar transcript to 1e-12")


# --- A3 quantile rule ----------------------------------------------------------


def test_a3_quantile_rule_exhaustive():
    rng = np.random.default_rng(3)
    checked = 0
    for n in range(1, 51):
        scores = rng.normal(size=n)
        ordered = sorted(scores)
        for delta in (0.05, 0.1, 0.2):
            k = math.ceil((n + 1) * (1 - delta))
            if k > n:
                with pytest.raises(ValueError):
                    conformal.critical_quantile(scores, delta)
            else:
                got = conformal.critical_quantile(scores, delta)
                assert got == ordered[k - 1]
            checked += 1
    assert checked == 150
    print("\n[A3] PASS quantile rule exact for n in 1..50, delta in {0.05, 0.1, 0.2}")


# --- A4 / A5 split-CP benchmark -------------------------------------------------


@pytest.fixture(scope="module")
def conformal_trials():
    """300 trials of the textbook disjoint-calibration protocol on a
    heteroscedastic generator with a dominant snapshot-level factor."""
    d, n_train, n_cal, n_test = 16, 120, 60, 100
    profile = 0.5 + 1.5 * np.linspace(0.0, 1.0, d)  # heteroscedastic scales
    delta = 0.1

    def residuals(rng, n):
        common = rng.normal(size=(n, 1))
        jitter = rng.normal(size=(n, d))
        return common * profile + 0.1 * profile * jitter

    stats = {kind: {"nominal": [], "pointwise": [], "width": []}
             for kind in conformal.SCORE_KINDS}
    start = time.time()
    for trial in range(300):
        rng = np.random.default_rng(10_000 + trial)
        train_res = residuals(rng, n_train)
        cal_res = residuals(rng, n_cal)
        test_res = residuals(rng, n_test)
        s = conformal.modulation(train_res)
        for kind in conformal.SCORE_KINDS:
            k_s = conformal.critical_quantile(conformal.scores(cal_res, s, kind), delta)
            radius = k_s * s
            inside = np.abs(test_res) <= radius
            stats[kind]["nominal"].append(inside.all(axis=1).mean())
            stats[kind]["pointwise"].append(inside.mean())
            stats[kind]["width"].append(2.0 * radius.mean())
    stats["elapsed"] = time.time() - start
    return stats


def test_a4_split_cp_coverage(conformal_trials):
    mean_nominal = float(np.mean(conformal_trials["linf"]["nominal"]))
    assert 0.87 <= mean_nominal <= 0.93
    assert conformal_trials["elapsed"] <= 120.0
    print(f"\n[A4] PASS split-CP mean nominal coverage {mean_nominal:.4f} in [0.87, 0.93] "
          f"({conformal_trials['elapsed']:.1f}s for 300 trials)")


def test_a5_score_tradeoff_direction(conformal_trials):
    linf = conformal_trials["linf"]
    nl2 = conformal_trials["normalized_l2"]
    width_nl2 = float(np.mean(nl2["width"]))
    width_linf = float(np.mean(linf["width"]))
    pw_nl2 = float(np.mean(nl2["pointwise"]))
    nom_nl2 = float(np.mean(nl2["nominal"]))
    nom_linf = float(np.mean(linf["nominal"]))
    assert width_nl2 < width_linf
    assert pw_nl2 >= 1.0 - 0.1 - 0.02
    assert nom_nl2 <= nom_linf
    print(f"\n[A5] PASS trade-off: width {width_nl2:.3f} < {width_linf:.3f}, "
          f"pointwise {pw_nl2:.4f} >= 0.88, nominal {nom_nl2:.4f} <= {nom_linf:.4f}")


# --- A6 multi-split stability ----------------------------------------------------


@pytest.fixture(scope="module")
def stability_model():
    lf, hf, _ = sinusoid_pair_benchmark(70, 16, 24, seed=60)
    cfg = mfae.MfaeConfig(
        d_lf=16, d_hf=24, encoder_widths=[12], latent_dim=2, decoder_widths=[12],
        seed=61, pretrain_epochs=400, learning_rate=3e-3,
    )
    model = mfae.pretrain(cfg, lf)
    return model, lf[:, :40], hf[:, :40]


def test_a6_multi_split_stability(stability_model):
    model, x, y = stability_model
    # fine-tune fast enough that the patience criterion genuinely fires
    kwargs = dict(cal_fraction=0.3, delta=0.1, kind="linf", patience=25,
                  max_epochs=500, lr=1e-2)
    multi, single = [], []
    epochs_seen = []
    for rep in range(20):
        res = conformal.multi_split_calibrate(x, y, model, n_splits=10, seed=rep, **kwargs)
        multi.append(res.radius)
        epochs_seen.extend(rec.epoch for rec in res.splits)
        single.append(conformal.multi_split_calibrate(
            x, y, model, n_splits=1, seed=100 + rep, **kwargs).radius)
    std_multi = np.std(np.stack(multi), axis=0)
    std_single = np.std(np.stack(single), axis=0)
    frac = float(np.mean(std_multi <= std_single))
    assert frac >= 0.90
    assert len(set(epochs_seen)) > 1  # stopping epochs genuinely vary

    # fixed master seed: identical stopping epoch and radii on rerun
    a = conformal.multi_split_calibrate(x, y, model, n_splits=10, seed=0, **kwargs)
    b = conformal.multi_split_calibrate(x, y, model, n_splits=10, seed=0, **kwargs)
    assert a.epoch == b.epoch
    assert np.array_equal(a.radius, b.radius)
    print(f"\n[A6] PASS multi-split radii tighter than single split in {frac:.0%} "
          f"of components; E* reproducible (= {a.epoch})")


# --- A7 end-to-end multi-fidelity gain --------------------------------------------


@pytest.fixture(scope="module")
def full_pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("a7")
    hf = make_pressure_set(400, 260, seed=101)
    save_csv(hf, root / "hf.csv")
    recipe = DegradationRecipe([PodTruncate(energy=0.9), Fps(m=104, seed=17)])
    (root / "recipe.json").write_text(recipe.to_json())
    cfg = PipelineConfig(
        lf_set=str(root / "out" / "lf.csv"),
        hf_set=str(root / "hf.csv"),
        out_dir=str(root / "out"),
        recipe=str(root / "recipe.json"),
        d_lf=104, d_hf=260,
        encoder_widths="64,32,16", latent_dim=3, decoder_widths="16,32,16",
        pretrain_epochs=2000, learning_rate=3e-3,
        max_finetune_epochs=800, patience=100,
        delta=0.1, score_kind="linf", calibration_splits=10, cal_fraction=0.3,
        hf_fraction=0.16, test_fraction=0.25, seed=202,
    )
    cfg_path = root / "config.txt"
    cfg_path.write_text(dump_config(cfg))
    start = time.time()
    for cmd in ("degrade", "pretrain", "calibrate", "finetune", "evaluate"):
        code = cli.main([cmd, "--config", str(cfg_path)])
        assert code == 0, f"{cmd} failed"
    elapsed = time.time() - start
    return root, cfg, elapsed


def test_a7_end_to_end_multi_fidelity_gain(full_pipeline):
    root, cfg, elapsed = full_pipeline
    report = json.loads((root / "out" / "report.json").read_text())
    split = json.loads((root / "out" / "split.json").read_text())
    assert len(split["train_idx"]) == 48
    assert len(split["test_idx"]) == 16
    lf = load_csv(cfg.lf_set)
    hf = load_csv(cfg.hf_set)
    assert lf.n_nodes == 104 and hf.n_nodes == 260

    # baseline: LF test inputs linearly interpolated onto the HF grid
    order = np.argsort(lf.coords[:, 0])
    xs = lf.coords[order, 0]
    test_names = split["test_names"]
    base = np.stack(
        [np.interp(hf.coords[:, 0], xs, lf.fields[order, j]) for j in lf.indices_of(test_names)],
        axis=1,
    )
    truth = hf.fields[:, hf.indices_of(test_names)]
    baseline_mae = float(np.mean(np.abs(base - truth)))

    assert report["test"]["mae"] < baseline_mae
    assert report["test"]["pointwise"] >= 0.93
    assert elapsed <= 600.0
    print(f"\n[A7] PASS pipeline MAE {report['test']['mae']:.4f} < interpolation "
          f"baseline {baseline_mae:.4f}; pointwise {report['test']['pointwise']:.4f} "
          f">= 0.93 ({elapsed:.0f}s)")


# --- A8 adapter necessity ----------------------------------------------------------


def test_a8_adapter_necessity():
    # moving-front family: poorly served by the (linear) pretrained decoder,
    # HF target adds a smooth per-node bias field
    d = 24
    rng = np.random.default_rng(31)
    fronts = rng.uniform(0.2, 0.8, size=60)
    x = np.linspace(0.0, 1.0, d)
    lf = np.stack([np.tanh(8.0 * (x - t)) for t in fronts], axis=1)
    bias_field = 0.6 * np.sin(2.0 * np.pi * x) + 0.4 * x
    hf = lf + bias_field[:, None]

    cfg = mfae.MfaeConfig(
        d_lf=d, d_hf=d, encoder_widths=[16], latent_dim=2, decoder_widths=[],
        seed=3, pretrain_epochs=1200, learning_rate=3e-3,
        normalization="none",
    )
    base = mfae.pretrain(cfg, lf)

    budget = 1200
    mse = {}
    for force in (False, True):
        model = mfae.clone(base)
        model.config = mfae.MfaeConfig(**{**model.config.__dict__, "force_adapter": force})
        mfae.fine_tune(model, lf, hf, epochs=budget, lr=3e-3, seed=11)
        assert (model.upscaler is not None) == force
        mse[force] = float(np.mean((mfae.predict(model, lf) - hf) ** 2))
    assert mse[True] <= 0.5 * mse[False]
    print(f"\n[A8] PASS adapter training MSE {mse[True]:.2e} <= 0.5 x "
          f"{mse[False]:.2e} (ratio {mse[True] / mse[False]:.3f})")


# --- A9 POD properties ----------------------------------------------------------------


def test_a9_pod_energy_bracketing_and_error_identity():
    rng = np.random.default_rng(9)
    for trial in range(20):
        d = int(rng.integers(4, 65))
        n = int(rng.integers(4, 65))
        x = rng.normal(size=(d, n)) * rng.uniform(0.1, 10.0)
        threshold = float(rng.uniform(0.5, 0.999))
        x_r, r_star, _ = lofi.pod_truncate(x, threshold)
        sigma = np.linalg.svd(x, compute_uv=False)
        energies = np.cumsum(sigma**2) / np.sum(sigma**2)
        assert energies[r_star - 1] >= threshold
        if r_star > 1:
            assert energies[r_star - 2] < threshold
        err2 = float(np.sum((x - x_r) ** 2))
        tail = float(np.sum(sigma[r_star:] ** 2))
        total = float(np.sum(sigma**2))
        # zero tail (full-rank kept): error must vanish relative to the total
        assert abs(err2 - tail) <= 1e-8 * max(tail, 1e-12 * total)
    print("\n[A9] PASS POD bracketing and truncation-error identity on 20 matrices")


# --- A10 geometry oracles ---------------------------------------------------------------


def test_a10_geometry_oracles():
    rng = np.random.default_rng(10)

    # FPS: every selection is the exhaustive argmax of the min distance
    pts = rng.normal(size=(64, 3))
    idx = lofi.fps(pts, 20, seed=5)
    for step in range(1, 20):
        chosen = idx[:step]
        best_i, best_val = None, -1.0
        for i in range(64):
            min_d = min(((pts[i] - pts[j]) ** 2).sum() for j in chosen)
            if min_d > best_val:
                best_val, best_i = min_d, i
        assert idx[step] == best_i

    # voxel means: brute-force binning oracle, exact equality
    vals = rng.normal(size=(64, 2))
    size = 0.9
    centers, means = lofi.voxelize(pts, vals, size)
    cells = {}
    for i in range(64):
        key = tuple(int(np.floor(pts[i, k] / size)) for k in range(3))
        cells.setdefault(key, []).append(i)
    assert centers.shape[0] == len(cells)
    for key, members in cells.items():
        row = np.where((np.abs(centers - (np.array(key) + 0.5) * size) < 1e-12).all(axis=1))[0]
        expected = np.add.reduce(vals[members], axis=0) / len(members)
        assert np.array_equal(means[row[0]], expected)

    # KNN averages: full-sort oracle, exact equality
    centers_idx = [0, 7, 31, 63]
    out = lofi.knn_average(pts, vals, centers_idx, k=6)
    for row, c in enumerate(centers_idx):
        dist = [((pts[c] - pts[j]) ** 2).sum() for j in range(64)]
        nearest = sorted(range(64), key=lambda j: (dist[j], j))[:6]
        assert np.array_equal(out[row], vals[nearest].mean(axis=0))

    # quantization: idempotent, bounded distinct levels
    x = rng.normal(size=(16, 16))
    for levels in (2, 5, 9):
        q = lofi.quantize(x, levels)
        assert np.array_equal(lofi.quantize(q, levels), q)
        assert len(np.unique(q)) <= levels
    print("\n[A10] PASS FPS argmax, voxel/KNN brute-force equality, quantization idempotence")


# --- A11 determinism and round trips --------------------------------------------------------


def _micro_chain(root, seed=321):
    os.makedirs(root, exist_ok=True)
    hf = make_pressure_set(60, 24, seed=77)
    save_csv(hf, root / "hf.csv")
    recipe = DegradationRecipe([PodTruncate(energy=0.9), Fps(m=12, seed=4)])
    (root / "recipe.json").write_text(recipe.to_json())
    cfg = PipelineConfig(
        lf_set=str(root / "out" / "lf.csv"),
        hf_set=str(root / "hf.csv"),
        out_dir=str(root / "out"),
        recipe=str(root / "recipe.json"),
        d_lf=12, d_hf=24,
        encoder_widths="10", latent_dim=3, decoder_widths="10",
        pretrain_epochs=120, learning_rate=3e-3,
        max_finetune_epochs=60, patience=15,
        delta=0.2, score_kind="normalized_l2", calibration_splits=2, cal_fraction=0.3,
        hf_fraction=0.35, test_fraction=0.25, seed=seed,
    )
    cfg_path = root / "config.txt"
    cfg_path.write_text(dump_config(cfg))
    for cmd in ("degrade", "pretrain", "calibrate", "finetune", "evaluate"):
        assert cli.main([cmd, "--config", str(cfg_path)]) == 0
    return root / "out"


def test_a11_determinism_and_round_trips(tmp_path):
    out1 = _micro_chain(tmp_path / "run1")
    out2 = _micro_chain(tmp_path / "run2")
    assert file_digest(out1 / "report.json") == file_digest(out2 / "report.json")
    assert file_digest(out1 / "calibration.json") == file_digest(out2 / "calibration.json")

    # CSV round trip: bit-identical files
    s = make_pressure_set(9, 13, seed=5)
    save_csv(s, tmp_path / "a.csv")
    save_csv(load_csv(tmp_path / "a.csv"), tmp_path / "b.csv")
    assert file_digest(tmp_path / "a.csv") == file_digest(tmp_path / "b.csv")
    assert file_digest(tmp_path / "a_params.csv") == file_digest(tmp_path / "b_params.csv")

    # model bundle round trip: reload and re-save, bit-identical networks,
    # identical predictions
    bundle1 = out1 / "model_final"
    model = mfae.load_model(bundle1)
    mfae.save_model(model, tmp_path / "bundle2")
    for name in ("encoder.json", "decoder.json", "upscaler.json", "encoder.npy", "decoder.npy",
                 "upscaler.npy"):
        assert file_digest(bundle1 / name) == file_digest(tmp_path / "bundle2" / name)
    again = mfae.load_model(tmp_path / "bundle2")
    lf = load_csv(out1 / "lf.csv")
    assert np.array_equal(mfae.predict(model, lf.fields[:, :1]),
                          mfae.predict(again, lf.fields[:, :1]))
    assert params_digest(model.encoder) == params_digest(again.encoder)
    print("\n[A11] PASS byte-identical reports across reruns; CSV and bundle "
          "round trips lossless")
