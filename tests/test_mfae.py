import json
import os

import numpy as np
import pytest

from mfcp import conformal, mfae, nn
from mfcp.data import compute_norm_stats, metrics

from helpers import gradients, params_digest, sinusoid_pair_benchmark, traced_peak


def small_config(**over):
    base = dict(
        d_lf=16, d_hf=24, encoder_widths=[12], latent_dim=2, decoder_widths=[12],
        seed=7, pretrain_epochs=300, learning_rate=3e-3,
    )
    base.update(over)
    return mfae.MfaeConfig(**base)


def test_config_invariants():
    cfg = small_config(d_hf=16)
    assert not cfg.uses_upscaler  # dimensions match, no adapter forced
    assert small_config(d_hf=16, force_adapter=True).uses_upscaler
    assert small_config().uses_upscaler
    assert small_config(upscaler_hidden=40).upscaler_width() == 40
    assert small_config().upscaler_width() == 24  # 1.5 x d_lf
    assert [small_config().dims(name) for name in mfae.NETWORKS] == [[16, 12, 2], [2, 12, 16],
                                                                      [16, 24, 24]]
    # rounded half to even, as round(1.5 * d_lf) does
    assert [small_config(d_lf=d).upscaler_width() for d in (17, 19)] == [26, 28]
    with pytest.raises(ValueError):
        small_config(latent_dim=17)
    with pytest.raises(ValueError):
        small_config(encoder_widths=[8, 0])
    with pytest.raises(ValueError):
        small_config(upscaler_hidden=-1)
    with pytest.raises(ValueError, match="unknown normalization mode 'global_minmax'"):
        small_config(normalization="global_minmax")
    # a 16 x width layer, at the weight bound and one column over it
    small_config(encoder_widths=[mfae.MAX_LAYER_WEIGHTS // 16])
    with pytest.raises(ValueError, match="MAX_LAYER_WEIGHTS"):
        small_config(encoder_widths=[mfae.MAX_LAYER_WEIGHTS // 16 + 1])


def test_pretrain_memorizes_single_snapshot():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, 1))
    model = mfae.pretrain(small_config(pretrain_epochs=50), x)
    h, _ = nn.forward(model.decoder, mfae.encode(model, x).T)
    rec = model.lf_stats.invert(h.T)
    assert float(np.mean((rec - x) ** 2)) <= 1e-4


def test_pretrain_reaches_r2_on_generative_family():
    lf, _, _ = sinusoid_pair_benchmark(100, 16, 24, seed=1)
    model = mfae.pretrain(small_config(pretrain_epochs=800), lf[:, :80])
    held_out = lf[:, 80:]
    h, _ = nn.forward(model.decoder, mfae.encode(model, held_out).T)
    rec = model.lf_stats.invert(h.T)
    assert metrics(rec, held_out)["r2"] >= 0.95


def test_pretrain_linear_autoassociator_near_zero_loss():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 30))
    cfg = mfae.MfaeConfig(
        d_lf=6, d_hf=6, encoder_widths=[], latent_dim=6, decoder_widths=[],
        seed=3, pretrain_epochs=3000, learning_rate=1e-2,
    )
    model = mfae.pretrain(cfg, x)
    assert model.pretrain_losses[-1] <= 1e-6


def test_pretrain_deterministic():
    lf, _, _ = sinusoid_pair_benchmark(30, 16, 24, seed=4)
    m1 = mfae.pretrain(small_config(pretrain_epochs=60), lf)
    m2 = mfae.pretrain(small_config(pretrain_epochs=60), lf)
    assert params_digest(m1.encoder) == params_digest(m2.encoder)
    assert params_digest(m1.decoder) == params_digest(m2.decoder)


def test_fine_tune_same_objective_continues_pretrain_loss():
    lf, _, _ = sinusoid_pair_benchmark(40, 16, 24, seed=5)
    cfg = small_config(d_hf=16, pretrain_epochs=400)
    model = mfae.pretrain(cfg, lf)
    result = mfae.fine_tune(model, lf, lf, epochs=5, lr=cfg.learning_rate)
    assert model.upscaler is None
    pre = model.pretrain_losses[-1]
    assert abs(result.losses[0] - pre) <= 0.5 * pre + 1e-9


def test_fine_tune_bias_corrected_by_adapter():
    # compressible family, so a bias-only solution exists by construction
    lf, _, _ = sinusoid_pair_benchmark(60, 16, 16, seed=6)
    c = 0.8
    hf = lf + c
    cfg = small_config(d_hf=16, force_adapter=True, pretrain_epochs=800)
    model = mfae.pretrain(cfg, lf)
    mfae.fine_tune(model, lf, hf, epochs=1000, lr=3e-3)
    pred = mfae.predict(model, lf)
    assert float(np.mean((pred - hf) ** 2)) <= 1e-3 * c * c


def test_fine_tune_freezes_encoder_and_sets_phase():
    lf, hf, _ = sinusoid_pair_benchmark(40, 16, 24, seed=9)
    model = mfae.pretrain(small_config(), lf)
    digest = params_digest(model.encoder)
    latent_before = mfae.encode(model, lf[:, :1])
    mfae.fine_tune(model, lf, hf, epochs=40)
    assert model.phase == mfae.PHASE_FINE_TUNED
    assert params_digest(model.encoder) == digest
    assert np.array_equal(mfae.encode(model, lf[:, :1]), latent_before)
    with pytest.raises(ValueError, match="pretrained"):
        mfae.fine_tune(model, lf, hf, epochs=1)


# --- fine_tune against training the whole stack with the encoder frozen ----------


def stacked_fine_tune(model, x_lf, y_hf, epochs, monitor=None, patience=100, lr=None,
                      seed=None):
    """fine_tune as nn.train's schedule over the whole stack (encoder, decoder,
    upscaler) with the encoder frozen: the encoder's forward pass runs every
    epoch, backward stops above it, and Adam steps each array on its own."""
    cfg = model.config
    if cfg.uses_upscaler:
        model.upscaler = nn.Mlp.from_widths(cfg.dims("upscaler"),
                                            seed=[cfg.seed, 2] if seed is None else seed)
    model.hf_stats = compute_norm_stats(y_hf, cfg.normalization)
    lr = lr or cfg.learning_rate / 10.0
    net = nn.stack(*[p for p in (model.encoder, model.decoder, model.upscaler) if p is not None])
    frozen = len(model.encoder.layers)
    tail = nn.Mlp(net.layers[frozen:])
    params = [a for layer in tail.layers for a in (layer.weights, layer.biases)]
    state = nn.AdamState(params, lr)
    x, y = model.lf_stats.apply(x_lf).T, model.hf_stats.apply(y_hf).T
    result = nn.TrainResult()
    if monitor is not None:
        mon_x, mon_y = model.lf_stats.apply(monitor[0]).T, model.hf_stats.apply(monitor[1]).T

        def val_mse():
            return float(np.mean((nn.forward(net, mon_x)[0] - mon_y) ** 2))

        result.val_losses, result.best_epoch = [val_mse()], 0
        best = [p.copy() for p in params]
    for epoch in range(1, epochs + 1):
        pred, cache = nn.forward(net, x)
        loss, grad = nn.mse_loss(pred, y)
        result.losses.append(loss)
        grads = gradients(tail, cache[frozen:], grad)
        nn.adam_step(state, params, [g for pair in grads for g in pair])
        if monitor is not None:
            result.val_losses.append(val_mse())
            if result.val_losses[-1] < result.val_losses[result.best_epoch] - 1e-12:
                result.best_epoch = epoch
                best = [p.copy() for p in params]
            elif epoch - result.best_epoch >= patience:
                result.halted_early = True
                break
    if monitor is not None:
        for p, b in zip(params, best):
            p[...] = b
    model.phase = mfae.PHASE_FINE_TUNED
    return result


def trained_bits(model, result):
    """What a fine-tune decides: the trained parameters and the training record."""
    nets = [model.decoder] + ([model.upscaler] if model.upscaler is not None else [])
    return ([params_digest(net) for net in nets], result.losses, result.val_losses,
            result.best_epoch, result.halted_early)


@pytest.mark.parametrize("d_hf", [24, 16], ids=["upscaler", "no-upscaler"])
def test_fine_tune_matches_the_frozen_stack_bitwise(d_hf):
    lf, hf, _ = sinusoid_pair_benchmark(30, 16, d_hf, seed=17)
    pretrained = mfae.pretrain(small_config(d_hf=d_hf, pretrain_epochs=60), lf)
    runs = []
    for tune in (mfae.fine_tune, stacked_fine_tune):
        model = mfae.clone(pretrained)
        result = tune(model, lf[:, :20], hf[:, :20], epochs=50)
        runs.append(trained_bits(model, result))
        runs.append(mfae.predict(model, lf[:, 20:]).tobytes())
    assert runs[0] == runs[2] and runs[1] == runs[3]
    assert runs[0][2] is None and len(runs[0][1]) == 50


def test_early_stopped_calibration_matches_the_frozen_stack_bitwise(monkeypatch):
    lf, hf, _ = sinusoid_pair_benchmark(14, 16, 24, seed=3)
    cfg = small_config(pretrain_epochs=150)
    pretrained = mfae.pretrain(cfg, lf)
    runs = []
    for tune in (mfae.fine_tune, stacked_fine_tune):
        tuned = {}  # by the split's seed [seed, b, 1]: the splits run on a thread pool

        def recorded(model, *args, tune=tune, tuned=tuned, **kwargs):
            result = tune(model, *args, **kwargs)
            tuned[tuple(kwargs["seed"])] = trained_bits(model, result)
            return result

        monkeypatch.setattr(mfae, "fine_tune", recorded)
        calibration = conformal.multi_split_calibrate(
            lf, hf, pretrained, n_splits=3, cal_fraction=0.3, delta=0.2, kind="linf",
            patience=10, seed=1, max_epochs=400, lr=2e-2)
        runs.append((tuned, [(rec.epoch, rec.critical_quantile, rec.radius.tobytes())
                             for rec in calibration.splits], calibration.radius.tobytes()))
    assert runs[0] == runs[1] and sorted(runs[0][0]) == [(1, b, 1) for b in range(3)]
    # at least two splits halt early, at different epochs
    halted = {bits[3] for bits in runs[0][0].values() if bits[4]}
    assert len(halted) >= 2


def test_fine_tune_releases_the_raw_columns_before_training():
    # passed as temporaries, the raw training and monitor columns are freed
    # before nn.train, whose arrays set the peak: it is lower by at least the
    # HF columns than when the caller holds them
    lf, hf, _ = sinusoid_pair_benchmark(60, 16, 2000, seed=5)
    pretrained = mfae.pretrain(small_config(d_hf=2000, pretrain_epochs=5), lf)

    def held():
        x, y, x_val, y_val = (a.copy() for a in (lf[:, :40], hf[:, :40], lf[:, 40:], hf[:, 40:]))
        mfae.fine_tune(mfae.clone(pretrained), x, y, epochs=3, monitor=(x_val, y_val))

    def passed():
        mfae.fine_tune(mfae.clone(pretrained), lf[:, :40].copy(), hf[:, :40].copy(), epochs=3,
                       monitor=(lf[:, 40:].copy(), hf[:, 40:].copy()))

    assert traced_peak(held) - traced_peak(passed) >= 0.9 * hf.nbytes


def test_fine_tune_for_zero_epochs_keeps_the_pretrained_decoder():
    lf, hf, _ = sinusoid_pair_benchmark(20, 16, 24, seed=13)
    pretrained = mfae.pretrain(small_config(pretrain_epochs=40), lf)
    for monitor in (None, (lf[:, 15:], hf[:, 15:])):
        model = mfae.clone(pretrained)
        result = mfae.fine_tune(model, lf[:, :15], hf[:, :15], epochs=0, monitor=monitor)
        assert model.phase == mfae.PHASE_FINE_TUNED and result.losses == []
        assert params_digest(model.decoder) == params_digest(pretrained.decoder)
        fresh = nn.Mlp.from_widths(model.config.dims("upscaler"), seed=[model.config.seed, 2])
        assert params_digest(model.upscaler) == params_digest(fresh)
        assert result.val_losses is None if monitor is None else len(result.val_losses) == 1


def test_predict_is_exactly_the_stepwise_composition():
    lf, hf, _ = sinusoid_pair_benchmark(40, 16, 24, seed=11)
    model = mfae.pretrain(small_config(pretrain_epochs=100), lf)
    mfae.fine_tune(model, lf, hf, epochs=30)
    # one snapshot is a (d_lf, 1) batch
    x = lf[:, 3:4]
    z, _ = nn.forward(model.encoder, model.lf_stats.apply(x).T)
    h, _ = nn.forward(model.decoder, z)
    u, _ = nn.forward(model.upscaler, h)
    manual = model.hf_stats.invert(u.T)
    assert np.array_equal(mfae.predict(model, x), manual)
    # pure function: repeated calls identical
    assert np.array_equal(mfae.predict(model, x), mfae.predict(model, x))
    # a (d_lf, n) batch runs as (n, d) rows and comes back as (d_hf, n)
    xs = lf[:, :7]
    z, _ = nn.forward(model.encoder, model.lf_stats.apply(xs).T)
    h, _ = nn.forward(model.decoder, z)
    u, _ = nn.forward(model.upscaler, h)
    assert np.array_equal(mfae.encode(model, xs), z.T)
    assert np.array_equal(mfae.predict(model, xs), model.hf_stats.invert(u.T))


def test_predict_phase_and_shape_errors():
    lf, hf, _ = sinusoid_pair_benchmark(30, 16, 24, seed=12)
    model = mfae.pretrain(small_config(pretrain_epochs=30), lf)
    with pytest.raises(ValueError, match="fine-tuned"):
        mfae.predict(model, lf[:, :1])
    mfae.fine_tune(model, lf, hf, epochs=5)
    with pytest.raises(ValueError):
        mfae.predict(model, np.zeros((17, 1)))


def test_encode_and_predict_reject_a_single_vector():
    lf, hf, _ = sinusoid_pair_benchmark(30, 16, 24, seed=12)
    model = mfae.pretrain(small_config(pretrain_epochs=30), lf)
    mfae.fine_tune(model, lf, hf, epochs=5)
    for x in (lf[:, 0], np.zeros(17)):
        with pytest.raises(ValueError, match="batch"):
            mfae.encode(model, x)
        with pytest.raises(ValueError, match="batch"):
            mfae.predict(model, x)


def test_latent_dimensions_match_design_space():
    # airfoil-style shape: 40 -> 64-32-16 -> 3 -> 16-32-16 -> 40 -> 60 -> 260
    rng = np.random.default_rng(13)
    lf = rng.normal(size=(40, 6))
    hf = rng.normal(size=(260, 6))
    cfg = mfae.MfaeConfig(
        d_lf=40, d_hf=260, encoder_widths=[64, 32, 16], latent_dim=3,
        decoder_widths=[16, 32, 16], seed=14, pretrain_epochs=1,
    )
    model = mfae.pretrain(cfg, lf)
    assert mfae.encode(model, lf[:, :1]).shape == (3, 1)
    assert model.config.upscaler_width() == 60
    mfae.fine_tune(model, lf, hf, epochs=1)
    assert mfae.predict(model, lf[:, :1]).shape == (260, 1)

    # wing-style latent: two flight parameters -> two latent coordinates
    cfg2 = small_config(latent_dim=2, pretrain_epochs=1)
    model2 = mfae.pretrain(cfg2, rng.normal(size=(16, 5)))
    assert mfae.encode(model2, np.zeros((16, 1))).shape == (2, 1)


def test_bundle_round_trip(tmp_path):
    lf, hf, _ = sinusoid_pair_benchmark(40, 16, 24, seed=15)
    model = mfae.pretrain(small_config(pretrain_epochs=80), lf)
    mfae.fine_tune(model, lf, hf, epochs=20)
    mfae.save_model(model, tmp_path / "bundle", extra={"hf_train_names": ["a"]})
    loaded = mfae.load_model(tmp_path / "bundle")
    assert loaded.phase == model.phase
    assert loaded.provenance == {"hf_train_names": ["a"]}
    assert params_digest(loaded.encoder) == params_digest(model.encoder)
    assert params_digest(loaded.decoder) == params_digest(model.decoder)
    assert params_digest(loaded.upscaler) == params_digest(model.upscaler)
    x = lf[:, 1:2]
    assert np.array_equal(mfae.predict(loaded, x), mfae.predict(model, x))


def test_load_model_refuses_an_upscaler_the_config_does_not_use(tmp_path):
    lf, hf, _ = sinusoid_pair_benchmark(20, 16, 16, seed=15)
    model = mfae.pretrain(small_config(d_hf=16, force_adapter=True, pretrain_epochs=5), lf)
    mfae.fine_tune(model, lf, hf, epochs=2)
    mfae.save_model(model, tmp_path)
    meta = json.loads((tmp_path / "meta.json").read_text())
    meta["config"]["force_adapter"] = False
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="must not exist in a fine_tuned bundle whose config "
                                         "has uses_upscaler = False"):
        mfae.load_model(tmp_path)


def bits(a):
    return np.asarray(a).view(np.uint64)


@pytest.mark.parametrize("mode", ["per_node_standard", "none"])
def test_bundle_stats_round_trip_bit_exactly(tmp_path, mode):
    lf, hf, _ = sinusoid_pair_benchmark(20, 16, 24, seed=15)
    model = mfae.pretrain(small_config(pretrain_epochs=5, normalization=mode), lf)
    mfae.save_model(model, tmp_path / "pretrained")
    mfae.fine_tune(model, lf, hf, epochs=2)
    mfae.save_model(model, tmp_path / "fine_tuned")
    stats_files = {"lf_stats.npy", "hf_stats.npy"} & set(os.listdir(tmp_path / "fine_tuned"))
    assert stats_files == (set() if mode == "none" else {"lf_stats.npy", "hf_stats.npy"})
    assert "hf_stats.npy" not in os.listdir(tmp_path / "pretrained")
    meta = json.loads((tmp_path / "fine_tuned" / "meta.json").read_text())
    assert sorted(meta) == ["config", "format_version", "phase"]
    loaded = mfae.load_model(tmp_path / "fine_tuned")
    assert mfae.load_model(tmp_path / "pretrained").hf_stats is None
    for name in mfae.STATS:
        want, got = getattr(model, name), getattr(loaded, name)
        assert got.mode == want.mode == mode
        if mode != "none":
            assert np.array_equal(bits(got.mean), bits(want.mean))
            assert np.array_equal(bits(got.std), bits(want.std))
            assert np.array_equal(np.load(tmp_path / "fine_tuned" / f"{name}.npy"),
                                  np.concatenate([want.mean, want.std]))


@pytest.mark.parametrize("saved, edited", [("per_node_standard", "none"),
                                           ("none", "per_node_standard")])
def test_load_model_takes_the_normalization_mode_from_the_config_only(tmp_path, saved, edited):
    lf, _, _ = sinusoid_pair_benchmark(20, 16, 24, seed=15)
    mfae.save_model(mfae.pretrain(small_config(pretrain_epochs=5, normalization=saved), lf),
                    tmp_path)
    meta = json.loads((tmp_path / "meta.json").read_text())
    meta["config"]["normalization"] = edited
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    want = "" if edited == "per_node_standard" else "not "
    with pytest.raises(ValueError, match=f"lf_stats.npy: must {want}exist in a pretrained "
                                         f"bundle whose config has uses_upscaler = True and "
                                         f"normalization = '{edited}'"):
        mfae.load_model(tmp_path)


def test_clone_is_independent():
    lf, hf, _ = sinusoid_pair_benchmark(30, 16, 24, seed=16)
    model = mfae.pretrain(small_config(pretrain_epochs=50), lf)
    twin = mfae.clone(model)
    mfae.fine_tune(twin, lf, hf, epochs=10)
    assert model.phase == mfae.PHASE_PRETRAINED
    assert twin.phase == mfae.PHASE_FINE_TUNED
    assert params_digest(model.decoder) != params_digest(twin.decoder)
