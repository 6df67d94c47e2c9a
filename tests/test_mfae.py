import numpy as np
import pytest

from mfcp import mfae, nn
from mfcp.data import metrics

from helpers import params_digest, sinusoid_pair_benchmark


def small_config(**over):
    base = dict(
        d_lf=16, d_hf=24, encoder_widths=[12], latent_dim=2, decoder_widths=[12],
        seed=7, pretrain_epochs=300, adam=nn.AdamConfig(lr=3e-3),
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
    with pytest.raises(ValueError):
        small_config(latent_dim=17)
    with pytest.raises(ValueError):
        small_config(encoder_widths=[8, 0])
    with pytest.raises(ValueError):
        small_config(upscaler_hidden=-1)
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
        seed=3, pretrain_epochs=3000, adam=nn.AdamConfig(lr=1e-2),
        activation="identity",
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
    result = mfae.fine_tune(model, lf, lf, epochs=5, adam=cfg.adam)
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
    mfae.fine_tune(model, lf, hf, epochs=1000, adam=nn.AdamConfig(lr=3e-3))
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


def test_clone_is_independent():
    lf, hf, _ = sinusoid_pair_benchmark(30, 16, 24, seed=16)
    model = mfae.pretrain(small_config(pretrain_epochs=50), lf)
    twin = mfae.clone(model)
    mfae.fine_tune(twin, lf, hf, epochs=10)
    assert model.phase == mfae.PHASE_PRETRAINED
    assert twin.phase == mfae.PHASE_FINE_TUNED
    assert params_digest(model.decoder) != params_digest(twin.decoder)
