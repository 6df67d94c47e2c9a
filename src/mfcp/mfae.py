"""Two-phase multi-fidelity autoencoder.

Phase one trains an encoder/decoder to reconstruct abundant low-fidelity
snapshots. Phase two freezes the encoder, fine-tunes the decoder on scarce
high-fidelity pairs, and trains a fresh up-scaler that bridges the
dimensionality gap (and corrects fidelity bias even when dimensions match).
"""

import copy
import json
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import nn
from .data import NormStats, compute_norm_stats

PHASE_PRETRAINED = "pretrained"
PHASE_FINE_TUNED = "fine_tuned"

BUNDLE_VERSION = 1

# weights in one dense layer: 128 MiB of float64, held several times in training
MAX_LAYER_WEIGHTS = 2**24


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
        if any(w <= 0 for w in [*self.encoder_widths, *self.decoder_widths, self.upscaler_width()]):
            raise ValueError("widths must be strictly positive")
        nets = [[self.d_lf, *self.encoder_widths, self.latent_dim],
                [self.latent_dim, *self.decoder_widths, self.d_lf]]
        if self.uses_upscaler:
            nets.append([self.d_lf, self.upscaler_width(), self.d_hf])
        for dims in nets:
            for n_in, n_out in zip(dims, dims[1:]):
                if n_in * n_out > MAX_LAYER_WEIGHTS:
                    raise ValueError(f"a {n_in} x {n_out} layer has {n_in * n_out} weights, "
                                     f"more than MAX_LAYER_WEIGHTS = {MAX_LAYER_WEIGHTS}")

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


def fine_tune(model, x_lf, y_hf, epochs, monitor=None, patience=100,
              adam=None, seed=None):
    """Phase two: freeze the encoder, adapt decoder and fresh up-scaler.

    `x_lf`/`y_hf` are paired (d_lf, n)/(d_hf, n) matrices. Train for
    `epochs` epochs, or, with a `monitor=(x_val, y_val)` pair of (d_lf, m)/
    (d_hf, m) matrices, for at most `epochs` with early stopping (best-epoch
    weights restored). The up-scaler, when the architecture calls for one,
    is always initialized from scratch here. Returns the per-phase
    nn.TrainResult (loss history in normalized units).
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
    mon = None
    if monitor is not None:
        mon = (model.lf_stats.apply(monitor[0]).T, model.hf_stats.apply(monitor[1]).T)
    if epochs == 0 and mon is None:  # nn.train needs epochs >= 1; E* may be 0
        result = nn.TrainResult()
    else:
        result = nn.train(net, inputs, targets, epochs=epochs, adam=adam,
                          monitor=mon, patience=patience)
    model.phase = PHASE_FINE_TUNED
    return result


def _run(model, x_lf, nets, out_stats=None):
    """Normalize a (d_lf, n) LF batch, run its n rows through `nets` in order
    and return the (d_out, n) result, mapped back to physical units by
    `out_stats` (left normalized when None)."""
    h = model.lf_stats.apply(x_lf).T
    for net in nets:
        h, _ = nn.forward(net, h)
    return h.T if out_stats is None else out_stats.invert(h.T)


def encode(model, x_lf):
    """(latent_dim, n) latent coordinates of a (d_lf, n) LF batch."""
    return _run(model, x_lf, [model.encoder])


def predict(model, x_lf):
    """(d_hf, n) high-fidelity prediction in physical units of a (d_lf, n)
    LF batch, for a fine-tuned model. One snapshot is a (d_lf, 1) batch.
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


def _from_mapping(cls, doc, what):
    """`cls(**doc)` for a meta.json mapping with exactly the fields of dataclass `cls`."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a mapping, got {doc!r}")
    names = {f.name for f in fields(cls)}
    if set(doc) != names:
        raise ValueError(f"{what}: unknown key(s) {sorted(set(doc) - names)}, "
                         f"missing key(s) {sorted(names - set(doc))}")
    return cls(**doc)


def load_model(out_dir) -> MfaeModel:
    """Read a bundle written by `save_model`. The meta.json entries that
    describe training rather than the model (the `extra` of save_model) are
    kept as `model.provenance`."""
    meta_path = os.path.join(out_dir, "meta.json")
    with open(meta_path) as fh:
        meta = json.load(fh)
    if meta.get("format_version") != BUNDLE_VERSION:
        raise ValueError(f"unsupported bundle version {meta.get('format_version')!r}")
    config = _from_mapping(MfaeConfig, meta["config"], f"{meta_path} config")
    config.adam = _from_mapping(nn.AdamConfig, config.adam, f"{meta_path} config adam")
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
