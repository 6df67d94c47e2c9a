"""Two-phase multi-fidelity autoencoder.

Phase one trains an encoder/decoder to reconstruct abundant low-fidelity
snapshots. Phase two freezes the encoder, fine-tunes the decoder on scarce
high-fidelity pairs, and trains a fresh up-scaler that bridges the
dimensionality gap (and corrects fidelity bias even when dimensions match).
"""

import contextlib
import copy
import json
import os
import tokenize
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import nn
from .data import NORM_MODES, NormStats, compute_norm_stats

PHASE_PRETRAINED = "pretrained"
PHASE_FINE_TUNED = "fine_tuned"

BUNDLE_VERSION = 5

NETWORKS = ("encoder", "decoder", "upscaler")
STATS = ("lf_stats", "hf_stats")

# weights in one dense layer: 128 MiB of float64, held several times in training
MAX_LAYER_WEIGHTS = 2**24


@dataclass
class MfaeConfig:
    d_lf: int
    d_hf: int
    encoder_widths: list
    latent_dim: int
    decoder_widths: list
    upscaler_hidden: int = 0  # 0 -> 1.5 * d_lf when an up-scaler is used
    force_adapter: bool = False
    seed: int = 0
    pretrain_epochs: int = 2000
    adam: nn.AdamConfig = field(default_factory=nn.AdamConfig)
    normalization: str = "per_node_standard"

    def __post_init__(self):
        if self.normalization not in NORM_MODES:
            raise ValueError(f"unknown normalization mode {self.normalization!r}")
        if not 1 <= self.latent_dim <= self.d_lf:
            raise ValueError("latent_dim must be in 1..d_lf")
        if any(w <= 0 for w in [*self.encoder_widths, *self.decoder_widths, self.upscaler_width()]):
            raise ValueError("widths must be strictly positive")
        for name in NETWORKS[:3 if self.uses_upscaler else 2]:
            dims = self.dims(name)
            for n_in, n_out in zip(dims, dims[1:]):
                if n_in * n_out > MAX_LAYER_WEIGHTS:
                    raise ValueError(f"a {n_in} x {n_out} layer has {n_in * n_out} weights, "
                                     f"more than MAX_LAYER_WEIGHTS = {MAX_LAYER_WEIGHTS}")

    @property
    def uses_upscaler(self):
        return self.d_lf != self.d_hf or self.force_adapter

    def dims(self, name):
        """The widths [n_in, ..., n_out] of network `name`, one of NETWORKS."""
        return {"encoder": [self.d_lf, *self.encoder_widths, self.latent_dim],
                "decoder": [self.latent_dim, *self.decoder_widths, self.d_lf],
                "upscaler": [self.d_lf, self.upscaler_width(), self.d_hf]}[name]

    def upscaler_width(self):
        # round(1.5 * d_lf), half to even, in int arithmetic: no int d_lf overflows it
        half, odd = divmod(3 * self.d_lf, 2)
        return self.upscaler_hidden or half + (odd and half % 2)


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

    encoder = nn.Mlp.from_widths(config.dims("encoder"), seed=[config.seed, 0])
    decoder = nn.Mlp.from_widths(config.dims("decoder"), seed=[config.seed, 1])
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
    is always initialized from scratch here. The encoder runs once per call,
    on the training and the monitor rows, and the decoder and up-scaler
    train on those latents: the same bits as training the whole stack with
    the encoder frozen, without its forward pass each epoch. Returns the
    per-phase nn.TrainResult (loss history in normalized units).
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
        model.upscaler = nn.Mlp.from_widths(cfg.dims("upscaler"), seed=seed)
    model.hf_stats = compute_norm_stats(y, cfg.normalization)

    # one tenth of the pretraining rate unless given explicitly
    if adam is None:
        adam = replace(cfg.adam, lr=cfg.adam.lr / 10.0)

    # the frozen encoder maps each row to the same latent every epoch, so it
    # runs once here and training starts at the decoder (the mask: see nn)
    encoder = nn.stack(model.encoder, trainable=[False])

    def latents(fields):
        return nn.forward(encoder, model.lf_stats.apply(fields).T)[0]

    net = nn.stack(*[part for part in (model.decoder, model.upscaler) if part is not None])
    mon = None
    if monitor is not None:
        mon = (latents(monitor[0]), model.hf_stats.apply(monitor[1]).T)
    if epochs == 0 and mon is None:  # nn.train needs epochs >= 1; E* may be 0
        result = nn.TrainResult()
    else:
        result = nn.train(net, latents(x), model.hf_stats.apply(y).T, epochs=epochs,
                          adam=adam, monitor=mon, patience=patience)
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
    """Write each network (encoder, decoder, optional upscaler) as a {name}.npy
    of its `nn.parameters` and a {name}.json of its `nn.to_json`, each record
    not of mode none (lf_stats, optional hf_stats) as a {name}.npy of its mean
    then its std, and meta.json: config, phase and the `extra` entries (e.g.
    training provenance). Optional files not written are removed, as stale."""
    os.makedirs(out_dir, exist_ok=True)
    vectors = {name: np.concatenate([stats.mean, stats.std]) for name in STATS
               if (stats := getattr(model, name)) is not None and stats.mode != "none"}
    for name in NETWORKS:
        if (net := getattr(model, name)) is not None:
            with open(os.path.join(out_dir, f"{name}.json"), "w") as fh:
                fh.write(nn.to_json(net))
            vectors[name] = nn.parameters(net.layers)
    for name, flat in vectors.items():
        with open(os.path.join(out_dir, f"{name}.npy"), "wb") as fh:
            np.save(fh, flat, allow_pickle=False)
    for name in _optional_files(model.config, model.phase):
        if name.partition(".")[0] not in vectors:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out_dir, name))
    meta = {"format_version": BUNDLE_VERSION, "phase": model.phase,
            "config": asdict(model.config)}  # nested AdamConfig becomes a dict
    with open(os.path.join(out_dir, "meta.json"), "w") as fh:
        json.dump({**meta, **(extra or {})}, fh, indent=2, sort_keys=True)


def _optional_files(config, phase):
    """{name: whether the bundle holds it} for each file only some bundles hold."""
    tuned, normalized = phase == PHASE_FINE_TUNED, config.normalization != "none"
    return {"upscaler.json": tuned and config.uses_upscaler,
            "upscaler.npy": tuned and config.uses_upscaler,
            "lf_stats.npy": normalized, "hf_stats.npy": tuned and normalized}


_META_KEYS = ("format_version", "phase", "config")

# field type -> (the JSON types of its values, what they are); a bool is not an int here
_JSON_TYPES = {int: ((int,), "an int"), float: ((int, float), "a number"), bool: ((bool,), "a bool"),
               str: ((str,), "a string"), list: ((list,), "a list of ints")}


def _from_mapping(cls, doc, prefix=""):
    """`cls(**doc)` for a meta.json mapping with exactly the fields of dataclass
    `cls`, each of its type; dataclass fields nest, named by their path `prefix`."""
    if not isinstance(doc, dict):
        raise ValueError(f"{prefix}must be a mapping, got {doc!r}")
    names = {f.name for f in fields(cls)}
    if set(doc) != names:
        raise ValueError(f"{prefix}unknown key(s) {sorted(set(doc) - names)}, "
                         f"missing key(s) {sorted(names - set(doc))}")
    values = dict(doc)
    for f in fields(cls):
        value = doc[f.name]
        if f.type not in _JSON_TYPES:
            values[f.name] = _from_mapping(f.type, value, f"{prefix}{f.name} ")
            continue
        types, rule = _JSON_TYPES[f.type]
        if type(value) not in types or f.type is list and any(type(w) is not int for w in value):
            raise ValueError(f"{prefix}{f.name} must be {rule}, got {value!r}")
    return cls(**values)


def _read(where, read, *args):
    """`read(*args)`, with `where: ` in front of the message of a ValueError it raises."""
    try:
        return read(*args)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _load_parameters(path):
    """The 1-D, native float64, finite vector that is all of the .npy file `path`. Mapped, so
    that a header claiming more data than the file holds fails before that much is allocated."""
    try:  # np.load's .npy reader; it reads no pickle, and no zip archive as np.load would
        mapped = np.lib.format.open_memmap(path, mode="r")
    except (SyntaxError, TypeError, tokenize.TokenError) as exc:  # from a malformed header
        raise ValueError(f"cannot parse the array header: {exc}") from None
    if mapped.dtype != np.float64 or mapped.ndim != 1:
        raise ValueError(f"must hold a 1-D float64 array, not {mapped.ndim}-D {mapped.dtype.str}")
    if mapped.offset + mapped.nbytes != os.path.getsize(path):
        raise ValueError("holds bytes after the array")
    flat = np.array(mapped)
    if not np.isfinite(flat).all():
        raise ValueError("holds a non-finite parameter")
    return flat


def load_model(out_dir) -> MfaeModel:
    """Read a bundle written by `save_model`. The meta.json entries that
    describe training rather than the model (the `extra` of save_model) are
    kept as `model.provenance`. A ValueError names the file and entry at fault."""
    meta_path = os.path.join(out_dir, "meta.json")
    with open(meta_path) as fh:
        meta = _read(meta_path, json.load, fh)
    if not isinstance(meta, dict) or not set(_META_KEYS) <= set(meta):
        raise ValueError(f"{meta_path}: must be a mapping with the keys {list(_META_KEYS)}")
    if meta["format_version"] != BUNDLE_VERSION:
        raise ValueError(f"{meta_path} format_version: unsupported bundle version "
                         f"{meta['format_version']!r}")
    config = _read(f"{meta_path} config", _from_mapping, MfaeConfig, meta["config"])
    phase = meta["phase"]
    if phase not in (PHASE_PRETRAINED, PHASE_FINE_TUNED):
        raise ValueError(f"{meta_path} phase: unknown phase {phase!r}")
    for key in ("lf_train_names", "hf_train_names"):  # evaluate's leakage check reads them
        if not (type(meta.get(key, [])) is list and all(type(n) is str for n in meta.get(key, []))):
            raise ValueError(f"{meta_path} {key}: must be a list of snapshot names")
    optional = _optional_files(config, phase)
    for name, want in optional.items():
        if os.path.exists(path := os.path.join(out_dir, name)) != want:
            raise ValueError(f"{path}: must {'' if want else 'not '}exist in a {phase} bundle "
                             f"whose config has uses_upscaler = {config.uses_upscaler} and "
                             f"normalization = {config.normalization!r}")

    def read_stats(name, n_nodes):
        npy = os.path.join(out_dir, f"{name}.npy")
        return (_read(npy, NormStats.from_vector, _read(npy, _load_parameters, npy), n_nodes)
                if optional[f"{name}.npy"] else NormStats("none"))

    def read_net(name):
        # the config's widths over {name}.npy; {name}.json must be their nn.to_json
        npy = os.path.join(out_dir, f"{name}.npy")
        net = _read(npy, nn.Mlp.from_parameters, config.dims(name),
                    _read(npy, _load_parameters, npy))
        path, want = os.path.join(out_dir, f"{name}.json"), nn.to_json(net)
        with open(path, "rb") as fh:
            if fh.read() != want.encode():
                raise ValueError(f"{path}: must read {want}, the layers of the config")
        return net

    upscaler = read_net("upscaler") if optional["upscaler.json"] else None
    hf_stats = read_stats("hf_stats", config.d_hf) if phase == PHASE_FINE_TUNED else None
    return MfaeModel(config, read_net("encoder"), read_net("decoder"), upscaler, phase,
                     read_stats("lf_stats", config.d_lf), hf_stats,
                     provenance={k: v for k, v in meta.items() if k not in _META_KEYS})
