"""Two-phase multi-fidelity autoencoder.

Phase one trains an encoder/decoder to reconstruct abundant low-fidelity
snapshots. Phase two freezes the encoder, fine-tunes the decoder on scarce
high-fidelity pairs, and trains a fresh up-scaler that bridges the
dimensionality gap (and corrects fidelity bias even when dimensions match).
"""

import copy
import json
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from . import nn
from .data import NormStats, compute_norm_stats

PHASE_PRETRAINED = "pretrained"
PHASE_FINE_TUNED = "fine_tuned"

BUNDLE_VERSION = 1


@dataclass
class MfaeConfig:
    d_lf: int
    d_hf: int
    encoder_widths: list
    latent_dim: int
    decoder_widths: list
    upscaler_hidden: int = None  # None -> 1.5 * d_lf when an up-scaler is used
    force_adapter: bool = False
    seed: int = 0
    pretrain_epochs: int = 2000
    adam: nn.AdamConfig = field(default_factory=nn.AdamConfig)
    activation: str = "relu"
    normalization: str = "per_node_standard"

    def __post_init__(self):
        if not 1 <= self.latent_dim <= self.d_lf:
            raise ValueError("latent_dim must be in 1..d_lf")
        if any(w <= 0 for w in list(self.encoder_widths) + list(self.decoder_widths)):
            raise ValueError("widths must be strictly positive")

    @property
    def uses_upscaler(self):
        return self.d_lf != self.d_hf or self.force_adapter

    def upscaler_width(self):
        if self.upscaler_hidden is not None:
            return self.upscaler_hidden
        return int(round(1.5 * self.d_lf))


@dataclass
class MfaeModel:
    config: MfaeConfig
    encoder: nn.Mlp
    decoder: nn.Mlp
    upscaler: nn.Mlp = None
    phase: str = PHASE_PRETRAINED
    lf_stats: NormStats = None
    hf_stats: NormStats = None
    pretrain_losses: list = None  # per-epoch reconstruction MSE, normalized units
    # meta.json keys load_model does not consume (lf_train_names,
    # hf_train_names, epochs_trained): what the bundle was trained on
    provenance: dict = field(default_factory=dict)


def clone(model) -> MfaeModel:
    """Independent deep copy (parameters included)."""
    return copy.deepcopy(model)


def pretrain(config, x_lf) -> MfaeModel:
    """Phase one: train encoder+decoder to reconstruct the LF snapshots.

    `x_lf` is the (d_lf, N) snapshot matrix. Normalization statistics are
    fit on it and stored on the model; training is full-batch MSE for
    `config.pretrain_epochs`.
    """
    fields = np.asarray(x_lf, dtype=np.float64)
    if fields.ndim != 2:
        raise ValueError("x_lf must be a (d_lf, N) matrix")
    if fields.shape[0] != config.d_lf:
        raise ValueError(f"snapshots have {fields.shape[0]} nodes, config.d_lf={config.d_lf}")
    lf_stats = compute_norm_stats(fields, config.normalization)
    samples = lf_stats.apply(fields).T  # (N, d_lf)

    encoder = nn.Mlp.from_widths(
        config.d_lf, config.encoder_widths, config.latent_dim,
        seed=[config.seed, 0], hidden_activation=config.activation,
    )
    decoder = nn.Mlp.from_widths(
        config.latent_dim, config.decoder_widths, config.d_lf,
        seed=[config.seed, 1], hidden_activation=config.activation,
    )
    auto = nn.stack(encoder, decoder)
    result = nn.train(auto, samples, samples, epochs=config.pretrain_epochs, adam=config.adam)
    return MfaeModel(config=config, encoder=encoder, decoder=decoder,
                     phase=PHASE_PRETRAINED, lf_stats=lf_stats,
                     pretrain_losses=result.losses)


def fine_tune(model, x_lf, y_hf, epochs=None, monitor=None, patience=100,
              adam=None, seed=None):
    """Phase two: freeze the encoder, adapt decoder and fresh up-scaler.

    `x_lf`/`y_hf` are paired (d_lf, n)/(d_hf, n) matrices. Train either for
    a fixed epoch count or against a `monitor=(x_val, y_val)` pair with
    early stopping (best-epoch weights restored). The up-scaler, when the
    architecture calls for one, is always initialized from scratch here.
    Returns the per-phase nn.TrainResult (loss history in normalized units).
    """
    if model.phase != PHASE_PRETRAINED:
        raise ValueError(f"fine_tune requires a pretrained model, got phase {model.phase!r}")
    cfg = model.config
    x = np.asarray(x_lf, dtype=np.float64)
    y = np.asarray(y_hf, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != cfg.d_lf:
        raise ValueError("x_lf must be (d_lf, n)")
    if y.ndim != 2 or y.shape[0] != cfg.d_hf or y.shape[1] != x.shape[1]:
        raise ValueError("y_hf must be (d_hf, n) paired with x_lf")
    if epochs is None and monitor is None:
        raise ValueError("need a fixed epoch count or a monitor set")

    if seed is None:
        seed = [cfg.seed, 2]
    if cfg.uses_upscaler:
        model.upscaler = nn.Mlp.from_widths(
            cfg.d_lf, [cfg.upscaler_width()], cfg.d_hf,
            seed=seed, hidden_activation=cfg.activation,
        )
    model.hf_stats = compute_norm_stats(y, cfg.normalization)

    # one tenth of the pretraining rate unless given explicitly
    if adam is None:
        adam = nn.AdamConfig(lr=cfg.adam.lr / 10.0, beta1=cfg.adam.beta1,
                             beta2=cfg.adam.beta2, eps=cfg.adam.eps)

    parts = [model.encoder, model.decoder]
    flags = [False, True]
    if model.upscaler is not None:
        parts.append(model.upscaler)
        flags.append(True)
    net = nn.stack(*parts, trainable=flags)

    inputs = model.lf_stats.apply(x).T
    targets = model.hf_stats.apply(y).T
    if monitor is not None:
        mon = (model.lf_stats.apply(monitor[0]).T, model.hf_stats.apply(monitor[1]).T)
        cap = epochs if epochs is not None else 100000
        result = nn.train(net, inputs, targets, epochs=cap, adam=adam,
                          monitor=mon, patience=patience)
    elif epochs == 0:
        result = nn.TrainResult()
    else:
        result = nn.train(net, inputs, targets, epochs=epochs, adam=adam)
    model.phase = PHASE_FINE_TUNED
    return result


def _run(model, x_lf, nets, out_stats=None):
    """Normalize one LF snapshot (d_lf,) or a batch (d_lf, n), run it through
    `nets` in order and return the result in the input's layout, mapped back
    to physical units by `out_stats` (left normalized when None)."""
    a = np.asarray(x_lf, dtype=np.float64)
    h = model.lf_stats.apply(a)
    batch = a.ndim == 2
    if batch:
        h = h.T
    for net in nets:
        h, _ = nn.forward(net, h)
    if batch:
        h = h.T
    return h if out_stats is None else out_stats.invert(h)


def encode(model, x_lf):
    """Latent coordinates of one snapshot (d_lf,) or a batch (d_lf, n)."""
    return _run(model, x_lf, [model.encoder])


def predict(model, x_lf):
    """High-fidelity prediction in physical units for a fine-tuned model.

    Accepts one snapshot (d_lf,) or a batch (d_lf, n); output matches.
    """
    if model.phase != PHASE_FINE_TUNED:
        raise ValueError("predict requires a fine-tuned model")
    nets = [model.encoder, model.decoder]
    if model.upscaler is not None:
        nets.append(model.upscaler)
    return _run(model, x_lf, nets, model.hf_stats)


# --- bundle persistence ------------------------------------------------------


def save_model(model, out_dir, extra=None):
    """Write encoder.json / decoder.json / upscaler.json (optional) plus
    meta.json (config, normalization stats, phase) into a directory.
    `extra` entries (e.g. training provenance) are merged into meta.json."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "encoder.json"), "w") as fh:
        fh.write(nn.to_json(model.encoder))
    with open(os.path.join(out_dir, "decoder.json"), "w") as fh:
        fh.write(nn.to_json(model.decoder))
    if model.upscaler is not None:
        with open(os.path.join(out_dir, "upscaler.json"), "w") as fh:
            fh.write(nn.to_json(model.upscaler))
    cfg = asdict(model.config)  # nested AdamConfig becomes a dict
    meta = {
        "format_version": BUNDLE_VERSION,
        "phase": model.phase,
        "config": cfg,
        "lf_stats": model.lf_stats.to_dict() if model.lf_stats else None,
        "hf_stats": model.hf_stats.to_dict() if model.hf_stats else None,
    }
    if extra:
        meta.update(extra)
    with open(os.path.join(out_dir, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)


_META_KEYS = ("format_version", "phase", "config", "lf_stats", "hf_stats")


def load_model(out_dir) -> MfaeModel:
    """Read a bundle written by `save_model`. The meta.json entries that
    describe training rather than the model (the `extra` of save_model) are
    kept as `model.provenance`."""
    with open(os.path.join(out_dir, "meta.json")) as fh:
        meta = json.load(fh)
    if meta.get("format_version") != BUNDLE_VERSION:
        raise ValueError(f"unsupported bundle version {meta.get('format_version')!r}")
    cfg_doc = dict(meta["config"])
    cfg_doc["adam"] = nn.AdamConfig(**cfg_doc["adam"])
    config = MfaeConfig(**cfg_doc)
    with open(os.path.join(out_dir, "encoder.json")) as fh:
        encoder = nn.from_json(fh.read())
    with open(os.path.join(out_dir, "decoder.json")) as fh:
        decoder = nn.from_json(fh.read())
    upscaler = None
    upath = os.path.join(out_dir, "upscaler.json")
    if os.path.exists(upath):
        with open(upath) as fh:
            upscaler = nn.from_json(fh.read())
    return MfaeModel(
        config=config,
        encoder=encoder,
        decoder=decoder,
        upscaler=upscaler,
        phase=meta["phase"],
        lf_stats=NormStats.from_dict(meta["lf_stats"]) if meta["lf_stats"] else None,
        hf_stats=NormStats.from_dict(meta["hf_stats"]) if meta["hf_stats"] else None,
        provenance={k: v for k, v in meta.items() if k not in _META_KEYS},
    )
