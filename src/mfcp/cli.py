"""Batch pipeline: degrade | pretrain | calibrate | finetune | evaluate.

Commands chain through files under the configured output directory:

    split.json            train/test/complementary snapshot indices
    model_pretrained/     phase-one bundle
    calibration.json      multi-split radii and the stopping epoch
    model_final/          phase-two bundle trained on all HF pairs
    report.json           metrics and coverage for the test sets
    cache/                parsed snapshot CSVs keyed by their sha256; safe to delete

Exit codes: 0 success, 2 validation/configuration error, 3 numeric failure.
Logging level comes from the MFCP_LOG environment variable (error|info|debug).
"""

import argparse
import hashlib
import json
import logging
import os
import sys
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from . import conformal, linalg, lofi, mfae, nn
from .data import _row_heads, _write_rows, load_csv, metrics, save_csv, stratified_split

log = logging.getLogger("mfcp")

REPORT_VERSION = 1


@dataclass
class PipelineConfig:
    lf_set: str = "lf.csv"
    hf_set: str = "hf.csv"
    out_dir: str = "out"
    recipe: str = ""
    d_lf: int = 0
    d_hf: int = 0
    encoder_widths: str = "64,32,16"
    latent_dim: int = 3
    decoder_widths: str = "16,32,16"
    upscaler_hidden: int = 0  # 0 -> 1.5 * d_lf
    force_adapter: bool = False
    pretrain_epochs: int = 2000
    learning_rate: float = 1e-3
    max_finetune_epochs: int = 2000
    patience: int = 100
    delta: float = 0.1
    score_kind: str = "normalized_l2"
    calibration_splits: int = 30
    cal_fraction: float = 0.3
    hf_fraction: float = 0.2
    test_fraction: float = 0.25
    seed: int = 0
    normalization: str = "per_node_standard"


_BOOL_WORDS = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}

# key -> (test, the rule it states); a value fails when `not test(value)`,
# so NaN fails every rule
_VALUE_RULES = {
    "patience": (lambda v: v >= 1, ">= 1"),
    "learning_rate": (lambda v: v > 0, "> 0"),
    "pretrain_epochs": (lambda v: v >= 1, ">= 1"),
    "max_finetune_epochs": (lambda v: v >= 1, ">= 1"),
}


def parse_config(text) -> PipelineConfig:
    """Parse the flat `key = value` config document."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    cfg = PipelineConfig()
    types = {f.name: type(getattr(cfg, f.name)) for f in dc_fields(PipelineConfig)}
    for key, val in values.items():
        if key not in types:
            raise ValueError(f"unknown config key {key!r}")
        t = types[key]
        if t is bool:
            if val.lower() not in _BOOL_WORDS:
                raise ValueError(f"config key {key}: bad boolean {val!r}")
            setattr(cfg, key, _BOOL_WORDS[val.lower()])
        else:
            try:
                setattr(cfg, key, t(val))
            except ValueError as exc:
                raise ValueError(f"config key {key}: {exc}") from None
    for key, (ok, rule) in _VALUE_RULES.items():
        if not ok(getattr(cfg, key)):
            raise ValueError(f"config key {key}: must be {rule}, got {getattr(cfg, key)!r}")
    return cfg


def dump_config(cfg) -> str:
    """Inverse of parse_config; floats keep full precision."""
    lines = []
    for f in dc_fields(PipelineConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, bool):
            v = "true" if v else "false"
        elif isinstance(v, float):
            v = repr(v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def derive_seed(master, label) -> int:
    """Stable named sub-seed so one master seed drives the whole pipeline."""
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _widths(key, text):
    """The ints of config key `key`'s comma-separated list `text`; [] for an empty one."""
    try:
        return [int(tok) for tok in text.split(",")] if text.strip() else []
    except ValueError:
        raise ValueError(f"config key {key}: must be a comma-separated list of ints, "
                         f"got {text!r}") from None


def _mfae_config(cfg) -> mfae.MfaeConfig:
    return mfae.MfaeConfig(
        d_lf=cfg.d_lf,
        d_hf=cfg.d_hf,
        encoder_widths=_widths("encoder_widths", cfg.encoder_widths),
        latent_dim=cfg.latent_dim,
        decoder_widths=_widths("decoder_widths", cfg.decoder_widths),
        upscaler_hidden=cfg.upscaler_hidden,
        force_adapter=cfg.force_adapter,
        seed=derive_seed(cfg.seed, "init"),
        pretrain_epochs=cfg.pretrain_epochs,
        learning_rate=cfg.learning_rate,
        normalization=cfg.normalization,
    )


# stage input key -> (test, the rule it states), as _VALUE_RULES; a bool is not an int here
_ARTIFACT_RULES = {
    **dict.fromkeys(("train_names", "complementary_names"), (
        lambda v: type(v) is list and all(type(n) is str for n in v), "a list of snapshot names")),
    # evaluate reports on the test set: an empty one has no mean error or coverage
    "test_names": (lambda v: type(v) is list and v and all(type(n) is str for n in v),
                   "a non-empty list of snapshot names"),
    "E_star": (lambda v: type(v) is int and v >= 0, "an int >= 0"),
    # no int lies in (0, 1), and NaN fails the comparison
    "delta": (lambda v: type(v) is float and 0 < v < 1, "a number in (0, 1)"),
    "kind": (lambda v: v in conformal.SCORE_KINDS, f"one of {list(conformal.SCORE_KINDS)}"),
    "R_star": (lambda v: type(v) is list and all(
        type(r) in (int, float) and 0 <= r <= sys.float_info.max for r in v),
        "a list of finite numbers >= 0"),
}


def _read_artifact(path, *keys):
    """The JSON mapping at `path`, a stage's input; ValueError naming the
    file and the key when one of `keys` is missing or breaks its rule."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: must be a mapping")
    for key in keys:
        if key not in doc or not _ARTIFACT_RULES[key][0](doc[key]):
            raise ValueError(f"{path} {key}: must be {_ARTIFACT_RULES[key][1]}")
    return doc


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        # NumPy arrays and scalars are written as their Python values
        json.dump(doc, fh, indent=2, sort_keys=True, default=lambda a: a.tolist())
        fh.write("\n")


def _write_history(path, losses):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,loss\n")
        _write_rows(fh, range(1, len(losses) + 1), np.reshape(losses, (-1, 1)), "\n")


def _load_set(cfg, path):
    """The snapshot set at `path`, through the parse cache under out_dir."""
    return load_csv(path, cache_dir=os.path.join(cfg.out_dir, "cache"))


def _stage_inputs(cfg, bundle):
    """What calibrate, finetune and evaluate start from: the model bundle
    `bundle` under out_dir, the LF and HF sets and the split plan."""
    model = mfae.load_model(os.path.join(cfg.out_dir, bundle))
    return (model, _load_set(cfg, cfg.lf_set), _load_set(cfg, cfg.hf_set),
            _read_artifact(os.path.join(cfg.out_dir, "split.json"), "train_names",
                           "test_names", "complementary_names"))


def _paired_matrices(lf, hf, names):
    """Column-paired (x_lf, y_hf) matrices for the given snapshot names."""
    xi = lf.indices_of(names)
    yi = hf.indices_of(names)
    return lf.fields[:, xi], hf.fields[:, yi]


def _train_pairs(cfg, bundle):
    """What calibrate and finetune train from: the model bundle `bundle`, the
    split plan and the paired (x_lf, y_hf) training matrices. The full LF and
    HF sets are freed on return, before any training."""
    model, lf, hf, split = _stage_inputs(cfg, bundle)
    return (model, split, *_paired_matrices(lf, hf, split["train_names"]))


# --- commands ----------------------------------------------------------------


def cmd_degrade(cfg):
    if not cfg.recipe:
        raise ValueError("degrade needs a 'recipe' path in the config")
    with open(cfg.recipe, encoding="utf-8") as fh:
        recipe = lofi.DegradationRecipe.from_json(fh.read())
    hf = _load_set(cfg, cfg.hf_set)
    # load_csv reads inf and nan cells; no recipe stage makes them finite
    if not np.isfinite(hf.fields).all():
        raise ValueError(f"hf_set {cfg.hf_set}: its fields are not all finite")
    lf, provenance = lofi.apply_recipe(hf, recipe, master_seed=derive_seed(cfg.seed, "degrade"))
    os.makedirs(cfg.out_dir, exist_ok=True)
    out_path = os.path.join(cfg.out_dir, "lf.csv")
    save_csv(lf, out_path)
    _write_json(os.path.join(cfg.out_dir, "provenance.json"), provenance)
    log.info("degraded %d snapshots: %d -> %d nodes", hf.n_snapshots, hf.n_nodes, lf.n_nodes)
    print(out_path)


def cmd_pretrain(cfg):
    config = _mfae_config(cfg)  # fails on bad widths before any output is written
    lf = _load_set(cfg, cfg.lf_set)
    hf = _load_set(cfg, cfg.hf_set)
    seed = derive_seed(cfg.seed, "split")
    plan = stratified_split(hf, cfg.hf_fraction, cfg.test_fraction, seed)
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_json(os.path.join(cfg.out_dir, "split.json"), {
        "train_idx": plan.train_idx,
        "test_idx": plan.test_idx,
        "complementary_idx": plan.complementary_idx,
        "train_names": [hf.names[i] for i in plan.train_idx],
        "test_names": [hf.names[i] for i in plan.test_idx],
        "complementary_names": [hf.names[i] for i in plan.complementary_idx],
        "strata": plan.strata,
        "seed": seed,
    })

    # LF counterparts of the HF test cases never enter any training
    test_names = {hf.names[i] for i in plan.test_idx}
    keep = [i for i, name in enumerate(lf.names) if name not in test_names]
    lf_train = lf.take(keep)

    model = mfae.pretrain(config, lf_train.fields)
    bundle = os.path.join(cfg.out_dir, "model_pretrained")
    mfae.save_model(model, bundle, extra={"lf_train_names": lf_train.names})
    _write_history(os.path.join(cfg.out_dir, "pretrain_history.csv"), model.pretrain_losses)
    log.info("pretrained on %d LF snapshots", lf_train.n_snapshots)
    print(bundle)


def cmd_calibrate(cfg):
    model, _, x, y = _train_pairs(cfg, "model_pretrained")
    seed = derive_seed(cfg.seed, "calibrate")
    result = conformal.multi_split_calibrate(
        x, y, model,
        n_splits=cfg.calibration_splits,
        cal_fraction=cfg.cal_fraction,
        delta=cfg.delta,
        kind=cfg.score_kind,
        patience=cfg.patience,
        seed=seed,
        max_epochs=cfg.max_finetune_epochs,
    )
    path = os.path.join(cfg.out_dir, "calibration.json")
    _write_json(path, {
        "format_version": REPORT_VERSION,
        "B": cfg.calibration_splits,
        "delta": cfg.delta,
        "kind": cfg.score_kind,
        "cal_fraction": cfg.cal_fraction,
        "seed": seed,
        "R_star": result.radius,
        "E_star": result.epoch,
        "splits": [
            {
                "train_idx": rec.train_idx,
                "cal_idx": rec.cal_idx,
                "k_s": rec.critical_quantile,
                "epoch": rec.epoch,
                "radius": rec.radius,
            }
            for rec in result.splits
        ],
    })
    log.info("calibrated over %d splits: E*=%d", cfg.calibration_splits, result.epoch)
    print(path)


def cmd_finetune(cfg):
    calibration = _read_artifact(os.path.join(cfg.out_dir, "calibration.json"), "E_star")
    model, split, x, y = _train_pairs(cfg, "model_pretrained")
    e_star = calibration["E_star"]
    result = mfae.fine_tune(model, x, y, epochs=e_star, seed=derive_seed(cfg.seed, "finetune"))
    bundle = os.path.join(cfg.out_dir, "model_final")
    meta_extra = {
        "hf_train_names": split["train_names"],
        "lf_train_names": model.provenance["lf_train_names"],
        "epochs_trained": e_star,
    }
    mfae.save_model(model, bundle, extra=meta_extra)
    _write_history(os.path.join(cfg.out_dir, "finetune_history.csv"), result.losses)
    log.info("fine-tuned on %d pairs for %d epochs", x.shape[1], e_star)
    print(bundle)


def _leakage_check(meta, test_names):
    trained = set(meta.get("hf_train_names", [])) | set(meta.get("lf_train_names", []))
    overlap = sorted(trained & set(test_names))
    if overlap:
        raise ValueError(f"test snapshots appear in training provenance: {overlap[:5]}")


def _evaluate_subset(model, radius, x, y):
    """Predict the (d_lf, n) LF columns `x`, band the prediction and score
    it against the paired HF columns `y`; (y, pred, lower, upper, report)."""
    pred = mfae.predict(model, x)
    lower, upper = conformal.band(pred.T, radius)
    cov = conformal.coverage(lower, upper, y.T)
    m = metrics(pred, y)
    return y, pred, lower, upper, {
        "mae": m["mae"],
        "rmse": m["rmse"],
        "r2": m["r2"],
        "nominal": cov.nominal,
        "pointwise": cov.pointwise,
        "band_width_mean": cov.width_mean,
        "band_width_std": cov.width_std,
        "n_snapshots": y.shape[1],
    }


def cmd_evaluate(cfg):
    path = os.path.join(cfg.out_dir, "calibration.json")
    calibration = _read_artifact(path, "R_star", "delta", "kind")
    model, lf, hf, split = _stage_inputs(cfg, "model_final")
    if len(calibration["R_star"]) != model.config.d_hf:
        raise ValueError(f"{path} R_star: must hold d_hf = {model.config.d_hf} radii, "
                         f"got {len(calibration['R_star'])}")
    test_names = split["test_names"]
    _leakage_check(model.provenance, test_names)
    for name in test_names:  # each names its file predictions/<name>.csv
        if os.path.basename(name) != name:
            raise ValueError(f"test snapshot name {name!r} contains a path separator")
        try:
            os.fsencode(name)
        except UnicodeEncodeError:
            raise ValueError(f"test snapshot name {name!r} cannot be a file name in the "
                             f"file system encoding {sys.getfilesystemencoding()!r}") from None
    radius = np.array(calibration["R_star"], dtype=np.float64)
    lf_names = set(lf.names)
    comp_names = [n for n in split["complementary_names"] if n in lf_names]
    # the test and complementary columns and the node coordinates are all
    # evaluate reads of the two sets, which go before any prediction
    test = _paired_matrices(lf, hf, test_names)
    comp = _paired_matrices(lf, hf, comp_names) if comp_names else None
    coords = hf.coords
    del lf, hf

    truth, pred, lower, upper, test_report = _evaluate_subset(model, radius, *test)
    report = {
        "format_version": REPORT_VERSION,
        "delta": calibration["delta"],
        "kind": calibration["kind"],
        "test": test_report,
    }
    if comp is not None:
        *_, comp_report = _evaluate_subset(model, radius, *comp)
        report["complementary_test"] = comp_report

    pred_dir = os.path.join(cfg.out_dir, "predictions")
    os.makedirs(pred_dir, exist_ok=True)
    heads = _row_heads(coords[:, :1])  # node,x: the same in every file
    for j, name in enumerate(test_names):
        with open(os.path.join(pred_dir, f"{name}.csv"), "w", encoding="utf-8") as fh:
            fh.write("node,x,truth,prediction,lower,upper\n")
            _write_rows(fh, heads, np.column_stack([truth[:, j], pred[:, j], lower[j], upper[j]]),
                        "\n")

    try:
        svg = _section_plot_svg(coords[:, 0], truth[:, 0], pred[:, 0], lower[0], upper[0],
                                title=test_names[0])
        with open(os.path.join(cfg.out_dir, "section_plot.svg"), "w", encoding="utf-8") as fh:
            fh.write(svg)
    except Exception as exc:  # plots are best-effort, never gate exit codes
        log.warning("plot emission failed: %s", exc)

    path = os.path.join(cfg.out_dir, "report.json")
    _write_json(path, report)
    log.info("test MAE %.4g, pointwise coverage %.3f",
             test_report["mae"], test_report["pointwise"])
    print(path)


def _section_plot_svg(x, truth, pred, lower, upper, title="", width=720, height=480):
    """Minimal static SVG: shaded band, prediction line, truth markers."""
    # XML forbids control characters even escaped; xml.sax.saxutils imports urllib
    title = "".join(c if c.isprintable() else "\ufffd" for c in title)
    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    order = np.argsort(x, kind="stable")
    x = np.asarray(x)[order]
    truth, pred = np.asarray(truth)[order], np.asarray(pred)[order]
    lower, upper = np.asarray(lower)[order], np.asarray(upper)[order]
    pad = 50.0
    lo, hi = float(min(lower.min(), truth.min())), float(max(upper.max(), truth.max()))
    x_min = x.min()
    span_x = float(x.max() - x_min) or 1.0
    span_y = (hi - lo) or 1.0
    px = (pad + (x - x_min) / span_x * (width - 2 * pad)).tolist()

    def sy(v):
        # value axis inverted so larger suction plots upward, plot-style
        return (pad + (hi - v) / span_y * (height - 2 * pad)).tolist()

    def pts(xs, ys):
        return " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(xs, ys))

    band_path = pts(px, sy(upper)) + " " + pts(px[::-1], sy(lower)[::-1])
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" font-size="14">{title}</text>',
        f'<polygon points="{band_path}" fill="#f4c7c3" stroke="none" opacity="0.8"/>',
        f'<polyline points="{pts(px, sy(pred))}" fill="none" stroke="#c0392b" stroke-width="1.5"/>',
    ]
    parts += [f'<circle cx="{a:.2f}" cy="{b:.2f}" r="2.2" fill="#2a5db0"/>'
              for a, b in zip(px, sy(truth))]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# --- entry point -------------------------------------------------------------


def _setup_logging():
    level = os.environ.get("MFCP_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfcp",
        description="multi-fidelity surrogate pipeline with conformal uncertainty bands",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("degrade", "pretrain", "calibrate", "finetune", "evaluate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="flat key = value config file")
    args = parser.parse_args(argv)
    _setup_logging()
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
        # looked up by name at call time, so a rebound cmd_* is the one run; one
        # BLAS thread, so that the bytes do not depend on OPENBLAS_NUM_THREADS
        with linalg.one_blas_thread():
            globals()[f"cmd_{args.command}"](cfg)
    except (nn.TrainingDiverged, np.linalg.LinAlgError, FloatingPointError) as exc:
        log.error("numeric failure: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        log.error("validation failure: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
