"""The batch pipeline end to end, driven exactly like a shell session.

Generates a synthetic high-fidelity database, degrades it into a paired
low-fidelity set, then chains the five subcommands:

    mfcp degrade   -> lf.csv + provenance.json
    mfcp pretrain  -> split.json + model_pretrained/
    mfcp calibrate -> calibration.json (radii R*, stopping epoch E*)
    mfcp finetune  -> model_final/ trained on all HF pairs for E* epochs
    mfcp evaluate  -> report.json, per-snapshot CSVs, section_plot.svg

One master seed fans out to every stage, so rerunning this script yields
byte-identical artifacts.
"""

import json
import os
import tempfile

import numpy as np

from mfcp import cli
from mfcp.cli import PipelineConfig, dump_config
from mfcp.data import SnapshotSet, cosine_abscissae, save_csv
from mfcp.lofi import DegradationRecipe, Fps, PodTruncate

# every file lives in one temporary workspace, removed when the script ends
with tempfile.TemporaryDirectory(prefix="mfcp_demo_") as root:
    rng = np.random.default_rng(11)

    # --- synthetic high-fidelity database (260 nodes x 300 snapshots)
    n_nodes, n_snapshots = 260, 300
    x = cosine_abscissae(n_nodes)
    params = np.column_stack([
        rng.uniform(0.6, 1.4, n_snapshots),
        rng.uniform(-0.5, 0.5, n_snapshots),
        rng.uniform(0.25, 0.75, n_snapshots),
    ])
    fields = np.stack(
        [-1.5 * a * np.sqrt(x + 1e-3) * (1 - x) + b * np.cos(2 * np.pi * x)
         + 1.2 * np.tanh(9 * (x - p)) for a, b, p in params],
        axis=1,
    )
    hf = SnapshotSet(fields=fields, coords=x[:, None], params=params,
                     param_names=["camber", "ripple", "front"],
                     names=[f"case{i:04d}" for i in range(n_snapshots)])
    save_csv(hf, os.path.join(root, "hf.csv"))

    # --- degradation recipe: keep 90% modal energy, then subsample to 104 nodes
    recipe = DegradationRecipe([PodTruncate(energy=0.90), Fps(m=104, seed=17)])
    with open(os.path.join(root, "recipe.json"), "w") as fh:
        fh.write(recipe.to_json())

    config = PipelineConfig(
        lf_set=os.path.join(root, "out", "lf.csv"),
        hf_set=os.path.join(root, "hf.csv"),
        out_dir=os.path.join(root, "out"),
        recipe=os.path.join(root, "recipe.json"),
        d_lf=104, d_hf=260,
        encoder_widths="64,32,16", latent_dim=3, decoder_widths="16,32,16",
        pretrain_epochs=1500, learning_rate=3e-3,
        max_finetune_epochs=600, patience=100,
        delta=0.1, score_kind="normalized_l2", calibration_splits=10, cal_fraction=0.3,
        hf_fraction=0.2, test_fraction=0.25, seed=99,
    )
    config_path = os.path.join(root, "config.txt")
    with open(config_path, "w") as fh:
        fh.write(dump_config(config))
    print(f"workspace: {root}\n")

    for command in ("degrade", "pretrain", "calibrate", "finetune", "evaluate"):
        print(f"$ mfcp {command} --config config.txt")
        code = cli.main([command, "--config", config_path])
        assert code == 0, f"{command} exited {code}"

    # --- inspect the artifacts the chain produced
    calibration = json.load(open(os.path.join(root, "out", "calibration.json")))
    print(f"\ncalibration: B={calibration['B']} splits, "
          f"E*={calibration['E_star']}, delta={calibration['delta']}")

    report = json.load(open(os.path.join(root, "out", "report.json")))
    test = report["test"]
    print("test set    : "
          f"MAE {test['mae']:.4f}  R2 {test['r2']:.4f}  "
          f"full-field {test['nominal']:.2f}  per-node {test['pointwise']:.3f}  "
          f"width {test['band_width_mean']:.3f}")
    comp = report["complementary_test"]
    print("complementary: "
          f"MAE {comp['mae']:.4f}  R2 {comp['r2']:.4f}  "
          f"full-field {comp['nominal']:.2f}  per-node {comp['pointwise']:.3f}")
    print(f"\nper-snapshot CSVs and section_plot.svg were under {os.path.join(root, 'out')}, "
          "which is removed on exit")
