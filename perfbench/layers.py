"""Per-layer metrics from the spans of one traced pipeline (five stages).

`*.s` is the total time inside a function, summed over calls and threads.
`*.self_s` is a span's duration minus the union of its children's
intervals; children can overlap because calibration runs its splits on a
thread pool. GFLOP figures are computed from layer shapes and batch rows
(2 FLOP per multiply-accumulate; bias adds and activations excluded).
"""

import statistics
from collections import defaultdict

STAGES = ("degrade", "pretrain", "calibrate", "finetune", "evaluate")

# (name, unit) in report order; BENCHMARK.json lists the same names.
PER_LAYER = (
    [("cli.startup_s", "s")]
    + [(f"cli.{stage}.self_s", "s") for stage in STAGES]
    + [
        ("data.load_csv.calls", "count"),
        ("data.load_csv.s", "s"),
        ("data.load_csv.mb", "MB"),
        ("data.save_csv.s", "s"),
        ("data.save_csv.mb", "MB"),
        ("data.stratified_split.s", "s"),
        ("lofi.apply_recipe.s", "s"),
        ("lofi.fps.s", "s"),
        ("lofi.knn_average.s", "s"),
        ("lofi.quantize.s", "s"),
        ("lofi.perturb.s", "s"),
        ("linalg.thin_svd.s", "s"),
        ("nn.adam_step.calls", "count"),
        ("nn.adam_step.s", "s"),
        ("nn.adam_step.mparam_updates", "Mparam"),
        ("nn.train.calls", "count"),
        ("nn.train.s", "s"),
        ("nn.train.self_s", "s"),
        ("nn.train.epochs", "count"),
        ("nn.train.us_per_epoch", "us"),
        ("nn.forward.calls", "count"),
        ("nn.forward.s", "s"),
        ("nn.forward.val_s", "s"),
        ("nn.forward.gflop", "GFLOP"),
        ("nn.forward.frozen_gflop_share", "fraction"),
        ("nn.backward.s", "s"),
        ("nn.backward.gflop", "GFLOP"),
        ("nn.backward.frozen_gflop_share", "fraction"),
        ("nn.mse_loss.s", "s"),
        ("nn.to_json.s", "s"),
        ("nn.from_json.s", "s"),
        ("mfae.pretrain.s", "s"),
        ("mfae.fine_tune.calls", "count"),
        ("mfae.fine_tune.s", "s"),
        ("mfae.fine_tune.self_s", "s"),
        ("mfae.clone.s", "s"),
        ("mfae.predict.s", "s"),
        ("mfae.save_model.s", "s"),
        ("mfae.load_model.s", "s"),
        ("conformal.multi_split_calibrate.s", "s"),
        ("conformal.multi_split_calibrate.self_s", "s"),
        ("conformal.split_s.median", "s"),
        ("conformal.split_s.max", "s"),
        ("conformal.split_epochs_run", "count"),
        ("conformal.useful_epoch_ratio", "fraction"),
        ("trace.overhead_s", "s"),
    ]
)

NAME, START, END, PARENT, THREAD, ATTRS = range(6)


def self_time(span, children):
    """Duration of `span` minus the union of its children's intervals."""
    start, end = span[START], span[END]
    covered, reach = 0.0, start
    for c_start, c_end in sorted((c[START], c[END]) for c in children):
        c_start, c_end = max(c_start, reach), min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            reach = c_end
    return (end - start) - covered


# functions whose self time is reported
_SELF_TIMED = {"nn.train", "mfae.fine_tune", "conformal.multi_split_calibrate"}


def _stage_totals(doc, stage, totals, splits):
    spans = doc["spans"]
    children = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append(span)

    def ancestors(span):
        while span[PARENT] >= 0:
            span = spans[span[PARENT]]
            yield span

    for i, span in enumerate(spans):
        name, dur, attrs = span[NAME], span[END] - span[START], span[ATTRS] or {}
        totals[f"{name}.calls"] += 1
        totals[f"{name}.s"] += dur
        if name in _SELF_TIMED:
            totals[f"{name}.self_s"] += self_time(span, children[i])
        elif name == f"cli.cmd_{stage}":
            totals[f"cli.{stage}.self_s"] += self_time(span, children[i])
        if name in ("nn.forward", "nn.backward"):
            totals[f"{name}.macs"] += attrs["macs"]
            totals[f"{name}.frozen_macs"] += attrs["frozen_macs"]
            if attrs.get("val"):
                totals["nn.forward.val_s"] += dur
        elif name == "nn.adam_step":
            totals["nn.adam_step.updates"] += attrs["updates"]
        elif name in ("data.load_csv", "data.save_csv"):
            totals[f"{name}.bytes"] += attrs["bytes"]
        elif name == "nn.train":
            epochs = sum(1 for c in children[i] if c[NAME] == "nn.adam_step")
            totals["nn.train.epochs"] += epochs
            if any(a[NAME] == "conformal.multi_split_calibrate" for a in ancestors(span)):
                totals["conformal.split_epochs_run"] += epochs
                totals["conformal.best_epochs"] += attrs["best_epoch"] or 0

    # a calibration split runs from its mfae.clone to the end of its
    # conformal.critical_quantile, in one thread
    for i, span in enumerate(spans):
        if span[NAME] != "conformal.multi_split_calibrate":
            continue
        by_thread = {}
        for c in sorted(children[i], key=lambda c: c[START]):
            by_thread.setdefault(c[THREAD], []).append(c)
        for seq in by_thread.values():
            begin = None
            for c in seq:
                if c[NAME] == "mfae.clone":
                    begin = c[START]
                elif c[NAME] == "conformal.critical_quantile" and begin is not None:
                    splits.append(c[END] - begin)
                    begin = None


def aggregate(stage_docs, overhead_s):
    """Per-layer metrics {name: (value, unit)} from {stage: spans document}."""
    totals, splits = defaultdict(float), []
    for stage in STAGES:
        doc = stage_docs[stage]
        totals["cli.startup_s"] += doc["main_entry_wall"] - doc["spawn_wall"]
        _stage_totals(doc, stage, totals, splits)

    def ratio(num, den, scale=1.0):
        return scale * totals[num] / totals[den] if totals[den] else 0.0

    values = dict(totals)
    values.update({
        "trace.overhead_s": overhead_s,
        "data.load_csv.mb": totals["data.load_csv.bytes"] / 1e6,
        "data.save_csv.mb": totals["data.save_csv.bytes"] / 1e6,
        "nn.adam_step.mparam_updates": totals["nn.adam_step.updates"] / 1e6,
        "nn.train.us_per_epoch": ratio("nn.train.s", "nn.train.epochs", 1e6),
        "nn.forward.gflop": 2.0 * totals["nn.forward.macs"] / 1e9,
        "nn.backward.gflop": 2.0 * totals["nn.backward.macs"] / 1e9,
        "nn.forward.frozen_gflop_share": ratio("nn.forward.frozen_macs", "nn.forward.macs"),
        "nn.backward.frozen_gflop_share": ratio("nn.backward.frozen_macs", "nn.backward.macs"),
        "conformal.useful_epoch_ratio": ratio("conformal.best_epochs", "conformal.split_epochs_run"),
        "conformal.split_s.median": statistics.median(splits) if splits else 0.0,
        "conformal.split_s.max": max(splits, default=0.0),
    })
    return {name: (_number(values.get(name, 0.0), unit), unit) for name, unit in PER_LAYER}


def _number(value, unit):
    return int(value) if unit == "count" else float(value)
