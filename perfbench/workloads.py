"""Benchmark workloads: input generators and output checks.

Each workload turns a seed into the files a user would hand to the CLI
(`hf.csv` with its params CSV, `recipe.json`, `config.txt`). The program
sees only those files. Config paths are relative to the workload
directory, which is where the stages run.

Why each workload exists:

- `a7_cli`: the A7 acceptance shape (400 HF snapshots x 260 nodes, 104-node
  LF, B = 10, linf). Calibration is the largest stage: 10 fine-tunes on
  34-pair batches, where per-call overhead (Adam, small matmuls) rules.
- `mesh3d_io`: a 3000-node 3-D surface cloud x 300 snapshots (about 18 MB
  of CSV) with tiny nets. Loads the CSV reader and writer, the degradation
  recipe (POD, k-NN averaging, quantization, noise) and the prediction-CSV
  loop; barely loads `nn`.

The `a7_cli` schedule is shorter than A7's (see README.md): fine-tuning
stops at 100 epochs with patience 100, so no calibration split stops early
and calibration does the same work for every seed, and pretraining is
short enough for a run to hold several samples of every stage.
"""

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

# --- generators --------------------------------------------------------------


def _pressure_params(rng, n):
    return np.column_stack([
        rng.uniform(0.6, 1.4, n),  # camber
        rng.uniform(-0.5, 0.5, n),  # tilt
        rng.uniform(0.25, 0.75, n),  # front
    ])


def _pressure(params, x):
    """Suction bump, periodic ripple and a recovery front at chord x = p."""
    a, b, p = params
    return (
        -1.5 * a * np.sqrt(x + 1e-3) * (1.0 - x)
        + b * np.cos(2.0 * np.pi * x)
        + 1.2 * np.tanh(9.0 * (x - p))
    )


def pressure_set(n_snapshots, n_nodes, seed):
    """Chordwise pressure family on a cosine-clustered grid.

    Same draws as the test suite's `make_pressure_set`, so seed 101 gives
    the A7 data set.
    """
    from mfcp.data import SnapshotSet

    rng = np.random.default_rng(seed)
    params = _pressure_params(rng, n_snapshots)
    nodes = (1.0 - np.cos(np.pi * np.arange(n_nodes) / (n_nodes - 1))) / 2.0
    fields = np.stack([_pressure(p, nodes) for p in params], axis=1)
    return SnapshotSet(fields=fields, coords=nodes[:, None], params=params,
                       param_names=["camber", "tilt", "front"],
                       names=[f"case{i:04d}" for i in range(n_snapshots)])


def surface_set(n_snapshots, n_nodes, seed):
    """Pressure-like fields on an ellipsoidal hull (Fibonacci point cloud)."""
    from mfcp.data import SnapshotSet

    rng = np.random.default_rng(seed)
    k = np.arange(n_nodes) + 0.5
    polar = np.arccos(1.0 - 2.0 * k / n_nodes)
    azimuth = np.pi * (1.0 + 5.0**0.5) * k
    coords = np.column_stack([
        2.0 * np.cos(polar),
        np.sin(polar) * np.cos(azimuth),
        0.6 * np.sin(polar) * np.sin(azimuth),
    ])
    chord = (coords[:, 0] / 2.0 + 1.0) / 2.0
    side = np.cos(azimuth) * np.sin(polar)
    params = _pressure_params(rng, n_snapshots)
    fields = np.stack([
        _pressure(p, chord) + 0.4 * p[0] * side * coords[:, 2] for p in params
    ], axis=1)
    return SnapshotSet(fields=fields, coords=coords, params=params,
                       param_names=["camber", "tilt", "front"],
                       names=[f"hull{i:04d}" for i in range(n_snapshots)])


@dataclass
class Workload:
    name: str
    make_set: object  # (seed) -> SnapshotSet
    recipe: list
    config: dict  # non-default config keys
    train_pairs: int
    test_pairs: int
    gates: list = field(default_factory=list)  # extra evaluate checks

    def config_text(self, seed):
        doc = {
            "hf_set": "hf.csv",
            "lf_set": "out/lf.csv",
            "out_dir": "out",
            "recipe": "recipe.json",
            **self.config,
            "seed": seed + 101,
        }
        return "".join(f"{k} = {v}\n" for k, v in doc.items())

    def generate(self, seed, root):
        """Write the workload's input files for `seed` into `root`."""
        from mfcp.data import save_csv

        os.makedirs(root, exist_ok=True)
        save_csv(self.make_set(seed), os.path.join(root, "hf.csv"))
        with open(os.path.join(root, "recipe.json"), "w") as fh:
            json.dump({"stages": self.recipe}, fh, indent=2)
        with open(os.path.join(root, "config.txt"), "w") as fh:
            fh.write(self.config_text(seed))


# --- checks ------------------------------------------------------------------
#
# Checks read the output files with their own parser, not with mfcp.data.
# Each returns a list of failure messages; an empty list passes.


def read_fields(path):
    """(names, coords (D, c), fields (D, N)) of a fields CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    c = sum(1 for h in header[1:4] if h in ("x", "y", "z"))
    data = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    return header[1 + c:], data[:, :c], data[:, c:]


def _read_history(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))[1:]
    return [float(r[1]) for r in rows]


def _finite(values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_degrade(wl, out):
    cfg = wl.config
    _, _, lf = read_fields(os.path.join(out, "lf.csv"))
    if lf.shape[0] != cfg["d_lf"]:
        return [f"lf.csv has {lf.shape[0]} nodes, expected {cfg['d_lf']}"]
    return []


def check_pretrain(wl, out):
    cfg = wl.config
    errors = []
    with open(os.path.join(out, "split.json")) as fh:
        split = json.load(fh)
    if (len(split["train_idx"]), len(split["test_idx"])) != (wl.train_pairs, wl.test_pairs):
        errors.append(f"split has {len(split['train_idx'])} train / {len(split['test_idx'])} "
                      f"test pairs, expected {wl.train_pairs} / {wl.test_pairs}")
    losses = _read_history(os.path.join(out, "pretrain_history.csv"))
    if len(losses) != cfg["pretrain_epochs"] or not _finite(losses):
        errors.append(f"pretrain_history.csv has {len(losses)} rows or non-finite losses, "
                      f"expected {cfg['pretrain_epochs']} finite rows")
    elif not losses[-1] < losses[0]:
        errors.append("pretrain loss did not decrease")
    return errors


def check_calibrate(wl, out):
    cfg = wl.config
    with open(os.path.join(out, "calibration.json")) as fh:
        cal = json.load(fh)
    errors = []
    radius = cal["R_star"]
    if len(radius) != cfg["d_hf"] or not _finite(radius) or min(radius) < 0:
        errors.append("R_star is not a finite non-negative vector of length d_hf")
    if not 0 <= cal["E_star"] <= cfg["max_finetune_epochs"]:
        errors.append(f"E_star {cal['E_star']} outside 0..{cfg['max_finetune_epochs']}")
    if len(cal["splits"]) != cfg["calibration_splits"]:
        errors.append(f"{len(cal['splits'])} calibration splits, expected {cfg['calibration_splits']}")
    return errors


def check_finetune(wl, out):
    with open(os.path.join(out, "calibration.json")) as fh:
        e_star = json.load(fh)["E_star"]
    with open(os.path.join(out, "model_final", "meta.json")) as fh:
        meta = json.load(fh)
    losses = _read_history(os.path.join(out, "finetune_history.csv"))
    errors = []
    if meta["phase"] != "fine_tuned":
        errors.append(f"model_final phase is {meta['phase']!r}")
    if len(losses) != e_star or not _finite(losses):
        errors.append(f"finetune_history.csv has {len(losses)} rows, expected {e_star} finite")
    return errors


REPORT_KEYS = ("mae", "rmse", "r2", "nominal", "pointwise", "band_width_mean", "band_width_std")


def check_evaluate(wl, out):
    cfg = wl.config
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    test = report["test"]
    errors = []
    if not _finite([test.get(k) for k in REPORT_KEYS]):
        errors.append("report.json test metrics are not all finite")
    with open(os.path.join(out, "split.json")) as fh:
        names = json.load(fh)["test_names"]
    for name in names:
        path = os.path.join(out, "predictions", f"{name}.csv")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        cells = np.array([[float(v) for v in row[3:6]] for row in rows])
        if len(rows) != cfg["d_hf"]:
            errors.append(f"{name}.csv has {len(rows)} rows, expected {cfg['d_hf']}")
        elif not (np.all(cells[:, 1] <= cells[:, 0]) and np.all(cells[:, 0] <= cells[:, 2])):
            errors.append(f"{name}.csv violates lower <= prediction <= upper")
    for gate in wl.gates:
        errors.extend(gate(wl, out, report))
    return errors


def a7_gates(wl, out, report):
    """A7: beat LF linear interpolation and cover >= 93% of test nodes."""
    with open(os.path.join(out, "split.json")) as fh:
        test_names = json.load(fh)["test_names"]
    lf_names, lf_x, lf = read_fields(os.path.join(out, "lf.csv"))
    hf_names, hf_x, hf = read_fields(os.path.join(os.path.dirname(out), "hf.csv"))
    order = np.argsort(lf_x[:, 0])
    base = np.stack([np.interp(hf_x[:, 0], lf_x[order, 0], lf[order, lf_names.index(n)])
                     for n in test_names], axis=1)
    truth = hf[:, [hf_names.index(n) for n in test_names]]
    baseline = float(np.mean(np.abs(base - truth)))
    errors = []
    if not report["test"]["mae"] < baseline:
        errors.append(f"test MAE {report['test']['mae']:.4g} >= interpolation baseline {baseline:.4g}")
    if not report["test"]["pointwise"] >= 0.93:
        errors.append(f"pointwise coverage {report['test']['pointwise']:.4g} < 0.93")
    return errors


CHECKS = {
    "degrade": check_degrade,
    "pretrain": check_pretrain,
    "calibrate": check_calibrate,
    "finetune": check_finetune,
    "evaluate": check_evaluate,
}


WORKLOADS = {
    "a7_cli": Workload(
        name="a7_cli",
        make_set=lambda seed: pressure_set(400, 260, seed),
        recipe=[{"kind": "pod_truncate", "energy": 0.9}, {"kind": "fps", "m": 104, "seed": 17}],
        config={"d_lf": 104, "d_hf": 260, "encoder_widths": "64,32,16", "latent_dim": 3,
                "decoder_widths": "16,32,16", "learning_rate": 3e-3, "pretrain_epochs": 1000,
                "max_finetune_epochs": 100, "patience": 100, "delta": 0.1,
                "score_kind": "linf", "calibration_splits": 10, "cal_fraction": 0.3,
                "hf_fraction": 0.16, "test_fraction": 0.25},
        train_pairs=48,
        test_pairs=16,
        gates=[a7_gates],
    ),
    "mesh3d_io": Workload(
        name="mesh3d_io",
        make_set=lambda seed: surface_set(300, 3000, seed),
        recipe=[
            {"kind": "pod_truncate", "energy": 0.95},
            {"kind": "knn_average", "m": 300, "k": 8},
            {"kind": "quantize", "levels": 64},
            {"kind": "noise", "sigma": 0.01},
        ],
        config={"d_lf": 300, "d_hf": 3000, "encoder_widths": "32", "latent_dim": 3,
                "decoder_widths": "32", "upscaler_hidden": 32, "learning_rate": 3e-3,
                "pretrain_epochs": 100, "max_finetune_epochs": 60, "patience": 100,
                "calibration_splits": 2, "hf_fraction": 0.4},
        train_pairs=90,
        test_pairs=30,
    ),
}
