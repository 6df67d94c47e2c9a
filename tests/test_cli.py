import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mfcp import cli, data, lofi, mfae, nn
from mfcp.cli import PipelineConfig, dump_config, parse_config
from mfcp.data import load_csv, save_csv
from mfcp.lofi import DegradationRecipe, Fps, PodTruncate

from helpers import child_env, make_pressure_set


def file_digest(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def chain_config(root):
    return PipelineConfig(
        lf_set=str(root / "out" / "lf.csv"),
        hf_set=str(root / "hf.csv"),
        out_dir=str(root / "out"),
        recipe=str(root / "recipe.json"),
        d_lf=12, d_hf=24,
        encoder_widths="10", latent_dim=3, decoder_widths="10",
        pretrain_epochs=150, learning_rate=3e-3,
        max_finetune_epochs=60, patience=15,
        delta=0.2, score_kind="linf", calibration_splits=2, cal_fraction=0.3,
        hf_fraction=0.35, test_fraction=0.25, seed=123,
    )


def run_chain(root, cfg_path):
    for cmd in ("degrade", "pretrain", "calibrate", "finetune", "evaluate"):
        code = cli.main([cmd, "--config", str(cfg_path)])
        assert code == 0, f"{cmd} failed"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("chain")
    hf = make_pressure_set(60, 24, seed=1)
    save_csv(hf, root / "hf.csv")
    recipe = DegradationRecipe([PodTruncate(energy=0.9), Fps(m=12, seed=11)])
    (root / "recipe.json").write_text(recipe.to_json())
    cfg = chain_config(root)
    cfg_path = root / "config.txt"
    cfg_path.write_text(dump_config(cfg))
    run_chain(root, cfg_path)
    return root, cfg, cfg_path


def test_config_round_trip_lossless():
    cfg = PipelineConfig(delta=0.07, cal_fraction=1 / 3, learning_rate=2.5e-4, seed=99)
    assert parse_config(dump_config(cfg)) == cfg


def test_config_defaults():
    cfg = PipelineConfig()
    assert cfg.calibration_splits == 30
    assert cfg.delta == 0.1
    assert cfg.cal_fraction == 0.3
    assert cfg.patience == 100


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config("no_such_key = 3\n")
    with pytest.raises(ValueError, match="bad boolean"):
        parse_config("force_adapter = maybe\n")


def test_identity_recipe_returns_input(tmp_path):
    hf = make_pressure_set(8, 10, seed=2)
    save_csv(hf, tmp_path / "hf.csv")
    (tmp_path / "recipe.json").write_text(DegradationRecipe([]).to_json())
    cfg = PipelineConfig(hf_set=str(tmp_path / "hf.csv"), recipe=str(tmp_path / "recipe.json"),
                         out_dir=str(tmp_path / "out"))
    (tmp_path / "c.txt").write_text(dump_config(cfg))
    assert cli.main(["degrade", "--config", str(tmp_path / "c.txt")]) == 0
    out = load_csv(tmp_path / "out" / "lf.csv")
    assert np.array_equal(out.fields, hf.fields)
    assert np.array_equal(out.coords, hf.coords)


@pytest.mark.parametrize("doc, message", [
    ('{"stages": [{"kind": "fps", "mm": 3}]}', "recipe stage 0 (fps): unknown field 'mm'"),
    ('{"stages": 5}', "recipe must be a JSON object with a 'stages' list"),
    ("[1]", "recipe must be a JSON object with a 'stages' list"),
    ('{"stages": [{"kind": "fps", "m": "x"}]}', "recipe stage 0 (fps): field 'm' must be int, got 'x'"),
    ('{"stages": [{"kind": "quantize", "levels": 1000000000000000}]}',
     "levels must be in 2..1048576, got 1000000000000000"),
    ('{"stages": [{"kind": "voxelize", "size": 0.5, "pca_align": true}]}',
     "recipe stage 0 (voxelize): unknown field 'pca_align'"),
], ids=["unknown-field", "stages-not-a-list", "top-level-list", "string-for-int", "huge-levels",
        "removed-pca-align"])
def test_malformed_recipe_exits_2(tmp_path, capsys, doc, message):
    save_csv(make_pressure_set(8, 10, seed=2), tmp_path / "hf.csv")
    (tmp_path / "recipe.json").write_text(doc)
    cfg = PipelineConfig(hf_set=str(tmp_path / "hf.csv"), recipe=str(tmp_path / "recipe.json"),
                         out_dir=str(tmp_path / "out"))
    (tmp_path / "c.txt").write_text(dump_config(cfg))
    assert cli.main(["degrade", "--config", str(tmp_path / "c.txt")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("stages, span, message", [
    # the level step (max - min) / 7 overflows, so every level is inf or nan
    ([{"kind": "quantize", "levels": 8}], 1.5e308, "recipe stage 0 (quantize)"),
    # finite input plus a finite offset past the largest double
    ([{"kind": "noise", "sigma": 0.0}, {"kind": "bias", "offset": 1e308}], 1e308,
     "recipe stage 1 (bias)"),
], ids=["quantize", "bias"])
def test_degrade_refuses_a_stage_that_overflows_finite_input(tmp_path, capsys, stages, span,
                                                              message):
    hf = make_pressure_set(8, 10, seed=2)
    hf.fields = span * np.sign(hf.fields - np.median(hf.fields))
    save_csv(hf, tmp_path / "hf.csv")
    (tmp_path / "recipe.json").write_text(json.dumps({"stages": stages}))
    cfg = PipelineConfig(hf_set=str(tmp_path / "hf.csv"), recipe=str(tmp_path / "recipe.json"),
                         out_dir=str(tmp_path / "out"))
    (tmp_path / "c.txt").write_text(dump_config(cfg))
    assert cli.main(["degrade", "--config", str(tmp_path / "c.txt")]) == 2
    assert capsys.readouterr().err == f"error: {message}: its output fields are not all finite\n"
    assert not (tmp_path / "out" / "lf.csv").exists()


@pytest.mark.parametrize("stages", [[], [{"kind": "fps", "m": 5, "seed": 1}]],
                         ids=["no-stage", "fps"])
def test_degrade_refuses_non_finite_hf_input_before_any_stage(tmp_path, capsys, stages):
    hf = make_pressure_set(8, 10, seed=2)
    hf.fields[3, 4] = math.inf
    save_csv(hf, tmp_path / "hf.csv")
    (tmp_path / "recipe.json").write_text(json.dumps({"stages": stages}))
    cfg = PipelineConfig(hf_set=str(tmp_path / "hf.csv"), recipe=str(tmp_path / "recipe.json"),
                         out_dir=str(tmp_path / "out"))
    (tmp_path / "c.txt").write_text(dump_config(cfg))
    assert cli.main(["degrade", "--config", str(tmp_path / "c.txt")]) == 2
    assert capsys.readouterr().err == f"error: hf_set {cfg.hf_set}: its fields are not all finite\n"
    assert not (tmp_path / "out" / "lf.csv").exists()


@pytest.mark.parametrize("line, message", [
    ("patience = 0", "config key patience: must be >= 1, got 0"),
    ("patience = -1", "config key patience: must be >= 1, got -1"),
    ("learning_rate = 0", "config key learning_rate: must be > 0, got 0.0"),
    ("learning_rate = -1", "config key learning_rate: must be > 0, got -1.0"),
    ("learning_rate = nan", "config key learning_rate: must be > 0, got nan"),
])
def test_out_of_range_config_values_exit_2(tmp_path, capsys, line, message):
    (tmp_path / "c.txt").write_text(line + "\n")
    for cmd in ("degrade", "pretrain", "calibrate"):
        assert cli.main([cmd, "--config", str(tmp_path / "c.txt")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("line, message", [
    ("pretrain_epochs = 1e3", "invalid literal for int() with base 10: '1e3'"),
    ("learning_rate = fast", "could not convert string to float: 'fast'"),
], ids=["int", "float"])
def test_unparsable_config_values_name_their_key(tmp_path, capsys, line, message):
    (tmp_path / "c.txt").write_text(line + "\n")
    assert cli.main(["degrade", "--config", str(tmp_path / "c.txt")]) == 2
    assert capsys.readouterr().err == f"error: config key {line.split()[0]}: {message}\n"


@pytest.mark.parametrize("line", ["encoder_widths = 64,,32", "encoder_widths = 64;32",
                                  "decoder_widths = 16,x", "decoder_widths = ,"])
def test_malformed_widths_name_their_key(tmp_path, capsys, line):
    key, _, value = line.partition(" = ")
    (tmp_path / "c.txt").write_text(f"{line}\nout_dir = {tmp_path / 'out'}\n")
    assert cli.main(["pretrain", "--config", str(tmp_path / "c.txt")]) == 2
    assert capsys.readouterr().err == (f"error: config key {key}: must be a comma-separated "
                                       f"list of ints, got {value!r}\n")
    assert not (tmp_path / "out").exists()


def test_empty_widths_mean_no_hidden_layer():
    assert cli._widths("encoder_widths", "") == cli._widths("decoder_widths", "  ") == []
    assert cli._widths("encoder_widths", "64, 32") == [64, 32]


def test_config_value_rules_keep_their_boundaries():
    cfg = parse_config("patience = 1\nlearning_rate = 1e-300\n"
                       "pretrain_epochs = 1\nmax_finetune_epochs = 1\n")
    assert (cfg.patience, cfg.learning_rate) == (1, 1e-300)
    assert (cfg.pretrain_epochs, cfg.max_finetune_epochs) == (1, 1)


@pytest.mark.parametrize("key", ["pretrain_epochs", "max_finetune_epochs"])
def test_zero_epoch_counts_exit_2_before_any_output(tmp_path, capsys, pipeline, key):
    _, cfg, _ = pipeline
    zero = dataclasses.replace(cfg, out_dir=str(tmp_path / "out"), **{key: 0})
    (tmp_path / "c.txt").write_text(dump_config(zero))
    capsys.readouterr()
    for cmd in ("degrade", "pretrain", "calibrate"):
        assert cli.main([cmd, "--config", str(tmp_path / "c.txt")]) == 2
        assert capsys.readouterr().err == f"error: config key {key}: must be >= 1, got 0\n"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["emit_plot = true", "finetune_learning_rate = 0.001"])
def test_removed_config_keys_exit_2(tmp_path, capsys, line):
    (tmp_path / "c.txt").write_text(line + "\n")
    for cmd in ("degrade", "pretrain", "calibrate", "finetune", "evaluate"):
        assert cli.main([cmd, "--config", str(tmp_path / "c.txt")]) == 2
        assert capsys.readouterr().err == f"error: unknown config key {line.split()[0]!r}\n"


@pytest.mark.parametrize("flag", [["--seed", "3"], ["--out", "elsewhere"]], ids=["seed", "out"])
def test_removed_flags_exit_2(tmp_path, capsys, flag):
    (tmp_path / "c.txt").write_text("")
    with pytest.raises(SystemExit) as exc:
        cli.main(["calibrate", "--config", str(tmp_path / "c.txt"), *flag])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "usage: mfcp [-h] {degrade,pretrain,calibrate,finetune,evaluate} ...\n"
        f"mfcp: error: unrecognized arguments: {' '.join(flag)}\n")


def test_degrade_reruns_bit_identical(pipeline):
    root, cfg, _ = pipeline
    first = file_digest(root / "out" / "lf.csv")
    out2 = dataclasses.replace(cfg, out_dir=str(root / "out2"))
    (root / "out2.txt").write_text(dump_config(out2))
    assert cli.main(["degrade", "--config", str(root / "out2.txt")]) == 0
    assert file_digest(root / "out2" / "lf.csv") == first


def test_degrade_provenance_records_reduction(pipeline):
    root, _, _ = pipeline
    prov = json.loads((root / "out" / "provenance.json").read_text())
    pod, fps_stage = prov["stages"]
    assert pod["kind"] == "pod_truncate" and pod["r_star"] >= 1
    assert pod["retained_energy"] >= 0.9
    assert fps_stage["kind"] == "fps" and len(fps_stage["mask"]) == 12


def test_pretrain_bundle_and_history(pipeline):
    root, cfg, _ = pipeline
    out = root / "out"
    assert (out / "model_pretrained" / "encoder.json").exists()
    history = (out / "pretrain_history.csv").read_text().strip().splitlines()
    assert history[0] == "epoch,loss"
    assert len(history) == 1 + cfg.pretrain_epochs
    losses = [float(r.split(",")[1]) for r in history[1:]]
    assert losses[-1] < losses[0]
    split = json.loads((out / "split.json").read_text())
    assert len(split["train_idx"]) == 16 and len(split["test_idx"]) == 5
    # LF counterparts of the HF test cases excluded from pretraining
    meta = json.loads((out / "model_pretrained" / "meta.json").read_text())
    assert not set(meta["lf_train_names"]) & set(split["test_names"])


def test_pretrain_one_epoch_history(tmp_path, pipeline):
    root, cfg, cfg_path = pipeline
    one = parse_config(dump_config(cfg))
    one.pretrain_epochs = 1
    one.out_dir = str(tmp_path / "one")
    # reuse the degraded LF set from the shared chain
    p = tmp_path / "one.txt"
    p.write_text(dump_config(one))
    assert cli.main(["pretrain", "--config", str(p)]) == 0
    lines = (tmp_path / "one" / "pretrain_history.csv").read_text().strip().splitlines()
    assert len(lines) == 2


def test_pretrain_seed_repeat_identical(pipeline, tmp_path):
    root, cfg, _ = pipeline
    rerun = dataclasses.replace(cfg, out_dir=str(tmp_path / "re"))
    (tmp_path / "re.txt").write_text(dump_config(rerun))
    assert cli.main(["pretrain", "--config", str(tmp_path / "re.txt")]) == 0
    for name in ("encoder.json", "encoder.npy", "decoder.json", "decoder.npy"):
        assert file_digest(tmp_path / "re" / "model_pretrained" / name) == \
            file_digest(root / "out" / "model_pretrained" / name)


def test_calibration_file_contents(pipeline):
    root, cfg, _ = pipeline
    doc = json.loads((root / "out" / "calibration.json").read_text())
    assert doc["B"] == cfg.calibration_splits
    assert doc["delta"] == cfg.delta
    assert doc["kind"] == cfg.score_kind
    assert len(doc["splits"]) == cfg.calibration_splits
    assert len(doc["R_star"]) == cfg.d_hf
    assert doc["E_star"] == math.ceil(np.median([s["epoch"] for s in doc["splits"]]))
    radii = np.array([rec["radius"] for rec in doc["splits"]])
    assert np.array_equal(np.median(radii, axis=0), np.array(doc["R_star"]))
    for rec in doc["splits"]:
        assert rec["k_s"] > 0
        assert all(r >= 0 for r in rec["radius"])
        assert not set(rec["train_idx"]) & set(rec["cal_idx"])


def test_calibrate_single_split(tmp_path, pipeline):
    root, cfg, _ = pipeline
    solo = parse_config(dump_config(cfg))
    solo.calibration_splits = 1
    solo.out_dir = str(tmp_path / "solo")
    os.makedirs(solo.out_dir, exist_ok=True)
    # reuse split + pretrained bundle
    import shutil
    shutil.copy(root / "out" / "split.json", tmp_path / "solo" / "split.json")
    shutil.copytree(root / "out" / "model_pretrained", tmp_path / "solo" / "model_pretrained")
    p = tmp_path / "solo.txt"
    p.write_text(dump_config(solo))
    assert cli.main(["calibrate", "--config", str(p)]) == 0
    doc = json.loads((tmp_path / "solo" / "calibration.json").read_text())
    assert doc["B"] == 1 and len(doc["splits"]) == 1


def test_finetune_history_matches_estar(pipeline):
    root, _, _ = pipeline
    calibration = json.loads((root / "out" / "calibration.json").read_text())
    lines = (root / "out" / "finetune_history.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + calibration["E_star"]
    meta = json.loads((root / "out" / "model_final" / "meta.json").read_text())
    assert meta["epochs_trained"] == calibration["E_star"]
    # the frozen encoder saw every LF snapshot it was pretrained on
    pretrained = json.loads((root / "out" / "model_pretrained" / "meta.json").read_text())
    assert meta["lf_train_names"] == pretrained["lf_train_names"]


def test_finetune_keeps_encoder_bit_identical(pipeline):
    root, _, _ = pipeline
    for name in ("encoder.json", "encoder.npy"):
        pre = root / "out" / "model_pretrained" / name
        fin = root / "out" / "model_final" / name
        assert file_digest(pre) == file_digest(fin)


def test_finetune_estar_zero_keeps_pretrained_decoder(tmp_path, pipeline):
    root, cfg, _ = pipeline
    import shutil
    zero = parse_config(dump_config(cfg))
    zero.out_dir = str(tmp_path / "zero")
    shutil.copytree(root / "out", zero.out_dir)
    calib_path = os.path.join(zero.out_dir, "calibration.json")
    doc = json.loads(open(calib_path).read())
    doc["E_star"] = 0
    json.dump(doc, open(calib_path, "w"))
    p = tmp_path / "zero.txt"
    p.write_text(dump_config(zero))
    assert cli.main(["finetune", "--config", str(p)]) == 0
    final = os.path.join(zero.out_dir, "model_final")
    for name in ("decoder.json", "decoder.npy"):
        assert file_digest(os.path.join(final, name)) == \
            file_digest(str(root / "out" / "model_pretrained" / name))
    assert os.path.exists(os.path.join(final, "upscaler.json"))
    assert os.path.exists(os.path.join(final, "upscaler.npy"))
    meta = json.loads(open(os.path.join(final, "meta.json")).read())
    assert meta["epochs_trained"] == 0
    with open(os.path.join(zero.out_dir, "finetune_history.csv"), newline="") as fh:
        assert fh.read() == "epoch,loss\n"


def test_report_fields_and_recomputation_oracle(pipeline):
    root, cfg, _ = pipeline
    report = json.loads((root / "out" / "report.json").read_text())
    for section in ("test", "complementary_test"):
        for key in ("mae", "rmse", "r2", "nominal", "pointwise",
                    "band_width_mean", "band_width_std"):
            assert key in report[section]
    # independent recomputation from the emitted per-snapshot CSVs
    split = json.loads((root / "out" / "split.json").read_text())
    abs_errors, inside, total = [], 0, 0
    for name in split["test_names"]:
        with open(root / "out" / "predictions" / f"{name}.csv") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            err = abs(float(row["prediction"]) - float(row["truth"]))
            abs_errors.append(err)
            total += 1
            inside += float(row["lower"]) <= float(row["truth"]) <= float(row["upper"])
    assert abs(report["test"]["mae"] - sum(abs_errors) / len(abs_errors)) <= 1e-12
    assert abs(report["test"]["pointwise"] - inside / total) <= 1e-12
    assert (root / "out" / "section_plot.svg").read_text().startswith("<svg")


def test_prediction_csv_lines_are_17_digit_cells(pipeline):
    root, cfg, _ = pipeline
    split = json.loads((root / "out" / "split.json").read_text())
    path = root / "out" / "predictions" / f"{split['test_names'][0]}.csv"
    lines = path.read_bytes().decode().split("\n")
    assert lines[0] == "node,x,truth,prediction,lower,upper"
    assert lines[-1] == "" and len(lines) == cfg.d_hf + 2
    for i, line in enumerate(lines[1:-1]):
        cells = line.split(",")
        assert len(cells) == 6 and cells[0] == str(i)
        assert line == ",".join([cells[0]] + [f"{float(c):.17g}" for c in cells[1:]])


def test_zero_radius_calibration_gives_zero_nominal(tmp_path, pipeline):
    root, cfg, _ = pipeline
    import shutil
    zr = parse_config(dump_config(cfg))
    zr.out_dir = str(tmp_path / "zr")
    shutil.copytree(root / "out", zr.out_dir)
    calib_path = os.path.join(zr.out_dir, "calibration.json")
    doc = json.loads(open(calib_path).read())
    doc["R_star"] = [0.0] * len(doc["R_star"])
    json.dump(doc, open(calib_path, "w"))
    p = tmp_path / "zr.txt"
    p.write_text(dump_config(zr))
    assert cli.main(["evaluate", "--config", str(p)]) == 0
    report = json.loads(open(os.path.join(zr.out_dir, "report.json")).read())
    assert report["test"]["nominal"] == 0.0


def test_perfect_model_reports_full_coverage(tmp_path, pipeline):
    # truth CSV replaced by the model's own predictions: mae 0, coverage 1
    root, cfg, _ = pipeline
    import shutil
    pf = parse_config(dump_config(cfg))
    pf.out_dir = str(tmp_path / "pf")
    shutil.copytree(root / "out", pf.out_dir)
    model = mfae.load_model(os.path.join(pf.out_dir, "model_final"))
    lf = load_csv(cfg.lf_set)
    hf = load_csv(cfg.hf_set)
    pred = mfae.predict(model, lf.fields[:, lf.indices_of(hf.names)])
    perfect = hf
    perfect.fields[:, :] = pred
    pf.hf_set = str(tmp_path / "hf_perfect.csv")
    save_csv(perfect, pf.hf_set)
    p = tmp_path / "pf.txt"
    p.write_text(dump_config(pf))
    assert cli.main(["evaluate", "--config", str(p)]) == 0
    report = json.loads(open(os.path.join(pf.out_dir, "report.json")).read())
    assert report["test"]["mae"] == 0.0
    assert report["test"]["nominal"] == 1.0 and report["test"]["pointwise"] == 1.0


def test_divergence_exits_3(tmp_path, pipeline):
    root, cfg, _ = pipeline
    bad = parse_config(dump_config(cfg))
    bad.out_dir = str(tmp_path / "bad")
    bad.learning_rate = 1e150  # guaranteed overflow within a few steps
    p = tmp_path / "bad.txt"
    p.write_text(dump_config(bad))
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(["pretrain", "--config", str(p)]) == 3


def test_evaluate_missing_artifacts_exit_2(tmp_path, pipeline):
    root, cfg, _ = pipeline
    missing = parse_config(dump_config(cfg))
    missing.out_dir = str(tmp_path / "nothing")
    os.makedirs(missing.out_dir)
    p = tmp_path / "missing.txt"
    p.write_text(dump_config(missing))
    assert cli.main(["evaluate", "--config", str(p)]) == 2


def test_leakage_guard_refuses(tmp_path, pipeline):
    root, cfg, _ = pipeline
    import shutil
    leak = parse_config(dump_config(cfg))
    leak.out_dir = str(tmp_path / "leak")
    shutil.copytree(root / "out", leak.out_dir)
    split = json.loads(open(os.path.join(leak.out_dir, "split.json")).read())
    meta_path = os.path.join(leak.out_dir, "model_final", "meta.json")
    meta = json.loads(open(meta_path).read())
    meta["hf_train_names"] = meta["hf_train_names"] + [split["test_names"][0]]
    json.dump(meta, open(meta_path, "w"))
    p = tmp_path / "leak.txt"
    p.write_text(dump_config(leak))
    assert cli.main(["evaluate", "--config", str(p)]) == 2


def chain_with_names(root, name, stages):
    """Run `stages` over the chain's HF set with snapshot i named name.format(i)."""
    hf = make_pressure_set(60, 24, seed=1)
    save_csv(dataclasses.replace(hf, names=[name.format(i) for i in range(60)]), root / "hf.csv")
    recipe = DegradationRecipe([PodTruncate(energy=0.9), Fps(m=12, seed=11)])
    (root / "recipe.json").write_text(recipe.to_json())
    cfg_path = root / "config.txt"
    cfg_path.write_text(dump_config(chain_config(root)))
    for cmd in stages:
        assert cli.main([cmd, "--config", str(cfg_path)]) == 0, f"{cmd} failed"
    return cfg_path


def test_evaluate_refuses_test_names_with_a_path_separator(tmp_path, capsys):
    cfg_path = chain_with_names(tmp_path, "../../esc{:02d}",
                                ("degrade", "pretrain", "calibrate", "finetune"))
    before = sorted(p for p in tmp_path.rglob("*") if "cache" not in p.parts)
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith("error: test snapshot name '../../esc")
    # nothing written: no report, no predictions, no file beside out/
    assert sorted(p for p in tmp_path.rglob("*") if "cache" not in p.parts) == before
    assert not (tmp_path / "out" / "predictions").exists()


def test_evaluate_refuses_test_names_the_file_system_cannot_encode(tmp_path):
    # under the C locale with coercion and UTF-8 mode off, file names are ASCII
    cfg_path = chain_with_names(tmp_path, "caf\u00e9{:02d}",
                                ("degrade", "pretrain", "calibrate", "finetune"))
    before = sorted(p for p in tmp_path.rglob("*") if "cache" not in p.parts)
    child = subprocess.run([sys.executable, "-m", "mfcp.cli", "evaluate", "--config", str(cfg_path)],
                           env=child_env(ascii_locale=True), capture_output=True)
    assert child.returncode == 2
    # ASCII standard error spells the name's é as an escape
    message = child.stderr.splitlines()[-1]
    assert message.startswith(b"error: test snapshot name 'caf\\xe9")
    assert message.endswith(b"' cannot be a file name in the file system encoding 'ascii'")
    assert sorted(p for p in tmp_path.rglob("*") if "cache" not in p.parts) == before
    assert not (tmp_path / "out" / "predictions").exists()


def reference_section_plot_svg(x, truth, pred, lower, upper, title="", width=720, height=480):
    """The section plot as it was drawn before its coordinates were computed
    as arrays: one scalar transform per point, x.min() taken each time."""
    title = "".join(c if c.isprintable() else "\ufffd" for c in title)
    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    order = np.argsort(x, kind="stable")
    x = np.asarray(x)[order]
    truth, pred = np.asarray(truth)[order], np.asarray(pred)[order]
    lower, upper = np.asarray(lower)[order], np.asarray(upper)[order]
    pad = 50.0
    lo, hi = float(min(lower.min(), truth.min())), float(max(upper.max(), truth.max()))
    span_x = float(x.max() - x.min()) or 1.0
    span_y = (hi - lo) or 1.0

    def sx(v):
        return pad + (v - x.min()) / span_x * (width - 2 * pad)

    def sy(v):
        return pad + (hi - v) / span_y * (height - 2 * pad)

    def pts(xs, ys):
        return " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(xs, ys))

    band_path = pts(x, upper) + " " + pts(x[::-1], lower[::-1])
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" font-size="14">{title}</text>',
        f'<polygon points="{band_path}" fill="#f4c7c3" stroke="none" opacity="0.8"/>',
        f'<polyline points="{pts(x, pred)}" fill="none" stroke="#c0392b" stroke-width="1.5"/>',
    ]
    for a, b in zip(x, truth):
        parts.append(f'<circle cx="{sx(a):.2f}" cy="{sy(b):.2f}" r="2.2" fill="#2a5db0"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def plot_case(kind):
    rng = np.random.default_rng(11)
    n = 1 if kind == "single-node" else 40
    # unsorted x with repeated stations, like an upper and a lower surface
    x = np.round(rng.uniform(-0.3, 1.7, n), 1)
    truth = np.full(n, -0.75) if kind == "constant-truth" else rng.normal(size=n) * 3.0
    if kind == "nan-truth":
        truth[n // 2] = np.nan
    pred = truth + rng.normal(size=n) * 0.1
    radius = np.abs(rng.normal(size=n)) + 0.05
    return x, truth, pred, pred - radius, pred + radius


@pytest.mark.parametrize("kind", ["unsorted-duplicates", "single-node", "constant-truth",
                                  "nan-truth"])
def test_section_plot_matches_the_per_point_form(kind):
    case = plot_case(kind)
    got = cli._section_plot_svg(*case, title="s<0>")
    assert got == reference_section_plot_svg(*case, title="s<0>")
    assert got.count("<circle") == len(case[0])


def test_section_plot_is_well_formed_xml_for_any_name(tmp_path):
    from xml.dom import minidom

    chain_with_names(tmp_path, "a<b&\x01{:02d}",
                     ("degrade", "pretrain", "calibrate", "finetune", "evaluate"))
    first = json.loads((tmp_path / "out" / "split.json").read_text())["test_names"][0]
    doc = minidom.parse(str(tmp_path / "out" / "section_plot.svg"))
    # markup characters escaped; a control character, which XML cannot hold, replaced
    assert doc.getElementsByTagName("text")[0].firstChild.data == first.replace("\x01", "\ufffd")


@pytest.mark.parametrize("key, value, layer", [
    ("encoder_widths", [10**12], "a 12 x 1000000000000 layer has 12000000000000 weights"),
    ("decoder_widths", [10**12], "a 3 x 1000000000000 layer has 3000000000000 weights"),
    ("upscaler_hidden", 10**12, "a 12 x 1000000000000 layer has 12000000000000 weights"),
], ids=["encoder", "decoder", "upscaler"])
def test_oversized_layer_exits_2(tmp_path, capsys, pipeline, key, value, layer):
    import shutil
    root, cfg, _ = pipeline
    rule = f"{layer}, more than MAX_LAYER_WEIGHTS = {mfae.MAX_LAYER_WEIGHTS}\n"
    # from the config: pretrain stops before it writes anything
    big = parse_config(dump_config(cfg) + f"{key} = {str(value).strip('[]')}\n")
    big.out_dir = str(tmp_path / "big")
    (tmp_path / "big.txt").write_text(dump_config(big))
    capsys.readouterr()
    assert cli.main(["pretrain", "--config", str(tmp_path / "big.txt")]) == 2
    assert capsys.readouterr().err == f"error: {rule}"
    assert not os.path.exists(big.out_dir)
    # from a bundle's meta.json: calibrate stops when it loads the model
    edited = parse_config(dump_config(cfg))
    edited.out_dir = str(tmp_path / "edited")
    shutil.copytree(root / "out", edited.out_dir)
    meta_path = os.path.join(edited.out_dir, "model_pretrained", "meta.json")
    meta = json.loads(open(meta_path).read())
    meta["config"][key] = value
    json.dump(meta, open(meta_path, "w"))
    (tmp_path / "edited.txt").write_text(dump_config(edited))
    assert cli.main(["calibrate", "--config", str(tmp_path / "edited.txt")]) == 2
    assert capsys.readouterr().err == f"error: {meta_path} config: {rule}"


def run_on_edited_bundle(tmp_path, capsys, pipeline, bundle, edit):
    """Copy the pipeline's out/ tree, apply `edit(meta, bundle_dir)` to the
    meta.json of `bundle` (a returned value replaces the document, a returned
    string its text) and run the stage that loads that bundle. Returns the
    exit code, stderr and the bundle directory."""
    import shutil
    root, cfg, _ = pipeline
    edited = dataclasses.replace(cfg, out_dir=str(tmp_path / "edited"))
    shutil.copytree(root / "out", edited.out_dir)
    bundle_dir = os.path.join(edited.out_dir, bundle)
    meta_path = os.path.join(bundle_dir, "meta.json")
    meta = json.loads(open(meta_path).read())
    doc = edit(meta, bundle_dir)
    with open(meta_path, "w") as fh:
        fh.write(doc if isinstance(doc, str) else json.dumps(meta if doc is None else doc))
    (tmp_path / "edited.txt").write_text(dump_config(edited))
    stage = "calibrate" if bundle == "model_pretrained" else "evaluate"
    capsys.readouterr()
    code = cli.main([stage, "--config", str(tmp_path / "edited.txt")])
    return code, capsys.readouterr().err, bundle_dir


def edit_config(**values):
    return lambda meta, _: meta["config"].update(values)


def copy_from_final(*names):
    """An edit that copies files `names` of model_final into the bundle."""
    def edit(meta, bundle_dir):
        import shutil
        for name in names:
            shutil.copy(os.path.join(os.path.dirname(bundle_dir), "model_final", name),
                        os.path.join(bundle_dir, name))
    return edit


def remove(*names):
    """An edit that deletes files `names` of the bundle."""
    def edit(meta, bundle_dir):
        for name in names:
            os.remove(os.path.join(bundle_dir, name))
    return edit


def edit_net(name, change):
    """An edit that rewrites network file `name` of the bundle as the JSON of
    `change(doc)`, or of the document itself when that returns None."""
    def edit(meta, bundle_dir):
        path = os.path.join(bundle_dir, f"{name}.json")
        doc = json.loads(open(path).read())
        new = change(doc)
        with open(path, "w") as fh:
            json.dump(doc if new is None else new, fh)
    return edit


def edit_npy(name, change):
    """An edit that rewrites the vector {name}.npy of the bundle (a network's
    parameters or a normalization record) as the .npy of the array
    `change(flat)` returns, or with the bytes it returns."""
    def edit(meta, bundle_dir):
        path = os.path.join(bundle_dir, f"{name}.npy")
        new = change(np.load(path))
        if isinstance(new, bytes):
            with open(path, "wb") as fh:
                fh.write(new)
        else:
            np.save(path, new)
    return edit


def npy_bytes(a):
    buf = io.BytesIO()
    np.save(buf, a)
    return buf.getvalue()


def set_item(index, value):
    def change(flat):
        flat[index] = value
        return flat
    return change


def swap_network(name, dims):
    """An edit that replaces network `name` by a consistent pair of .json and
    .npy files for a fresh network of widths `dims`."""
    def edit(meta, bundle_dir):
        net = nn.Mlp.from_widths(dims, seed=0)
        write_text(f"{name}.json", nn.to_json(net))(meta, bundle_dir)
        np.save(os.path.join(bundle_dir, f"{name}.npy"), nn.parameters(net.layers))
    return edit


def write_text(name, text):
    def edit(meta, bundle_dir):
        with open(os.path.join(bundle_dir, name), "w") as fh:
            fh.write(text)
    return edit


def bundle_paths(bundle_dir):
    """The path of each file of a bundle, by name: {meta}, {encoder} and
    {encoder_npy} for meta.json, encoder.json and encoder.npy, {lf_stats} for
    lf_stats.npy, and so on."""
    paths = {name: os.path.join(bundle_dir, f"{name}.json")
             for name in ("meta", "encoder", "decoder", "upscaler")}
    paths.update({f"{name}_npy": os.path.join(bundle_dir, f"{name}.npy")
                  for name in ("encoder", "decoder", "upscaler")})
    paths.update({name: os.path.join(bundle_dir, f"{name}.npy") for name in mfae.STATS})
    return paths


META_KEYS = "['format_version', 'phase', 'config']"
NPY_RULE = "must hold a 1-D float64 array, not "
PICKLE_RULE = "Array can't be memory-mapped: Python objects in dtype."


@pytest.mark.parametrize("edit, message", [
    (edit_config(bogus=1), "{meta} config: unknown key(s) ['bogus'], missing key(s) []"),
    (edit_config(adam={"lr": 0.003}),
     "{meta} config: unknown key(s) ['adam'], missing key(s) []"),
    (edit_config(normalization="bogus"), "{meta} config: unknown normalization mode 'bogus'"),
    (lambda meta, _: [1], "{meta}: must be a mapping with the keys " + META_KEYS),
    (edit_config(latent_dim="3"), "{meta} config: latent_dim must be an int, got '3'"),
    (edit_config(latent_dim=True), "{meta} config: latent_dim must be an int, got True"),
    (edit_config(encoder_widths="4"),
     "{meta} config: encoder_widths must be a list of ints, got '4'"),
    (edit_config(decoder_widths=[10.0]),
     "{meta} config: decoder_widths must be a list of ints, got [10.0]"),
    (edit_config(upscaler_hidden="18"), "{meta} config: upscaler_hidden must be an int, got '18'"),
    (edit_config(force_adapter=0), "{meta} config: force_adapter must be a bool, got 0"),
    (lambda meta, _: meta.update(format_version=1),
     "{meta} format_version: unsupported bundle version 1"),
    (lambda meta, _: meta.update(format_version=4),
     "{meta} format_version: unsupported bundle version 4"),
    (lambda meta, _: meta.update(format_version=5),
     "{meta} format_version: unsupported bundle version 5"),
    (edit_config(normalization=1), "{meta} config: normalization must be a string, got 1"),
    (edit_config(learning_rate="1"), "{meta} config: learning_rate must be a number, got '1'"),
    (edit_config(learning_rate=False),
     "{meta} config: learning_rate must be a number, got False"),
    (edit_config(learning_rate=float("nan")), "{meta} config: learning_rate must be > 0, got nan"),
    (edit_config(learning_rate=0), "{meta} config: learning_rate must be > 0, got 0"),
    (edit_config(learning_rate=10**400),
     f"{{meta}} config: learning_rate must fit in a float, got {10**400}"),
    (edit_npy("lf_stats", lambda flat: flat.round().astype(np.int64)),
     "{lf_stats}: " + NPY_RULE + "1-D <i8"),
    (edit_config(d_lf=10**400), f"{{meta}} config: a {10**400} x 10 layer has {10**401} weights, "
                                f"more than MAX_LAYER_WEIGHTS = {mfae.MAX_LAYER_WEIGHTS}"),
], ids=["unknown-config-key", "adam-an-unknown-key", "unknown-norm-mode", "meta-not-a-mapping",
        "int-as-string", "int-as-bool", "widths-as-string", "widths-of-floats",
        "upscaler-hidden-as-string", "force-adapter-as-int", "version-1-bundle", "version-4-bundle",
        "version-5-bundle", "normalization-as-int", "adam-lr-as-string", "adam-lr-as-bool",
        "adam-lr-nan", "adam-lr-zero", "adam-lr-a-huge-int", "lf-stats-as-int",
        "d-lf-past-the-float-range"])
def test_malformed_bundle_meta_exits_2(tmp_path, capsys, pipeline, edit, message):
    code, err, bundle_dir = run_on_edited_bundle(tmp_path, capsys, pipeline,
                                                 "model_pretrained", edit)
    assert code == 2
    assert err == f"error: {message.format(**bundle_paths(bundle_dir))}\n"


def set_key(**values):
    return lambda doc: doc.update(values)


def drop_key(key):
    def edit(doc):
        del doc[key]
    return edit


def set_radius(value):
    return lambda doc: doc["R_star"].__setitem__(3, value)


NAMES_RULE = "must be a list of snapshot names"
TEST_NAMES_RULE = " test_names: must be a non-empty list of snapshot names"
E_STAR_RULE = " E_star: must be an int >= 0"
R_STAR_RULE = " R_star: must be a list of finite numbers >= 0"
DELTA_RULE = " delta: must be a number in (0, 1)"
KIND_RULE = " kind: must be one of ['linf', 'normalized_l2']"


def test_evaluate_frees_the_full_sets_before_any_prediction(tmp_path, monkeypatch):
    # at each prediction no traced block is as large as the HF set's fields:
    # evaluate keeps only the test and complementary columns and the coordinates
    hf = make_pressure_set(60, 2000, seed=3)
    save_csv(hf, tmp_path / "hf.csv")
    (tmp_path / "recipe.json").write_text(
        DegradationRecipe([PodTruncate(energy=0.9), Fps(m=40, seed=2)]).to_json())
    cfg = dataclasses.replace(chain_config(tmp_path), d_lf=40, d_hf=2000, encoder_widths="8",
                              decoder_widths="8", upscaler_hidden=8, pretrain_epochs=5,
                              max_finetune_epochs=5)
    (tmp_path / "c.txt").write_text(dump_config(cfg))
    for cmd in ("degrade", "pretrain", "calibrate", "finetune"):
        assert cli.main([cmd, "--config", str(tmp_path / "c.txt")]) == 0
    largest, predict = [], mfae.predict

    def traced_predict(model, x_lf):
        largest.append(max(trace.size for trace in tracemalloc.take_snapshot().traces))
        return predict(model, x_lf)

    monkeypatch.setattr(mfae, "predict", traced_predict)
    tracemalloc.start()
    try:
        cli.cmd_evaluate(cfg)
    finally:
        tracemalloc.stop()
    assert len(largest) == 2 and max(largest) < hf.fields.nbytes


@pytest.mark.parametrize("stage, name, edit, message", [
    ("finetune", "calibration.json", set_key(E_star=None), E_STAR_RULE),
    ("finetune", "calibration.json", set_key(E_star=1.5), E_STAR_RULE),
    ("finetune", "calibration.json", set_key(E_star=True), E_STAR_RULE),
    ("finetune", "calibration.json", set_key(E_star="7"), E_STAR_RULE),
    ("finetune", "calibration.json", set_key(E_star=-1), E_STAR_RULE),
    ("finetune", "calibration.json", drop_key("E_star"), E_STAR_RULE),
    ("finetune", "calibration.json", lambda doc: [1], ": must be a mapping"),
    ("calibrate", "split.json", lambda doc: [1], ": must be a mapping"),
    ("calibrate", "split.json", set_key(train_names="a"), " train_names: " + NAMES_RULE),
    ("calibrate", "split.json", set_key(train_names=[1, 2]), " train_names: " + NAMES_RULE),
    ("evaluate", "split.json", drop_key("test_names"), TEST_NAMES_RULE),
    ("evaluate", "split.json", set_key(test_names=[]), TEST_NAMES_RULE),
    ("evaluate", "split.json", set_key(complementary_names=None),
     " complementary_names: " + NAMES_RULE),
    ("evaluate", "calibration.json", lambda doc: doc.update(R_star=dict(enumerate(doc["R_star"]))),
     R_STAR_RULE),
    ("evaluate", "calibration.json", set_radius(float("nan")), R_STAR_RULE),
    ("evaluate", "calibration.json", set_radius(-1e-9), R_STAR_RULE),
    ("evaluate", "calibration.json", set_radius(10**400), R_STAR_RULE),
    ("evaluate", "calibration.json", set_radius(True), R_STAR_RULE),
    ("evaluate", "calibration.json", set_radius("0.5"), R_STAR_RULE),
    ("evaluate", "calibration.json", lambda doc: doc.update(R_star=doc["R_star"][:-1]),
     " R_star: must hold d_hf = 24 radii, got 23"),
    ("evaluate", "calibration.json", set_key(R_star=[]),
     " R_star: must hold d_hf = 24 radii, got 0"),
    ("evaluate", "calibration.json", set_key(delta=float("nan")), DELTA_RULE),
    ("evaluate", "calibration.json", drop_key("delta"), DELTA_RULE),
    ("evaluate", "calibration.json", set_key(delta="0.2"), DELTA_RULE),
    ("evaluate", "calibration.json", set_key(delta=True), DELTA_RULE),
    ("evaluate", "calibration.json", set_key(delta=1.0), DELTA_RULE),
    ("evaluate", "calibration.json", set_key(kind=["linf"]), KIND_RULE),
    ("evaluate", "calibration.json", set_key(kind="l1"), KIND_RULE),
    ("evaluate", "calibration.json", drop_key("kind"), KIND_RULE),
], ids=["e-star-null", "e-star-a-float", "e-star-a-bool", "e-star-a-string", "e-star-negative",
        "no-e-star", "calibration-not-a-mapping", "split-not-a-mapping", "train-names-a-string",
        "train-names-of-ints", "no-test-names", "test-names-empty", "complementary-names-null",
        "r-star-a-mapping", "r-star-nan", "r-star-negative", "r-star-a-huge-int", "r-star-a-bool",
        "r-star-a-string", "r-star-short", "r-star-empty", "delta-nan", "no-delta",
        "delta-a-string", "delta-a-bool", "delta-one", "kind-a-list", "kind-unknown", "no-kind"])
def test_malformed_stage_input_exits_2(tmp_path, capsys, pipeline, stage, name, edit, message):
    # a stage checks the keys it reads of split.json and calibration.json;
    # the error names the file and the key. `edit` changes the document in
    # place or returns the one that replaces it.
    import shutil
    root, cfg, _ = pipeline
    edited = dataclasses.replace(cfg, out_dir=str(tmp_path / "edited"))
    shutil.copytree(root / "out", edited.out_dir)
    path = os.path.join(edited.out_dir, name)
    doc = json.loads(open(path).read())
    with open(path, "w") as fh:
        json.dump(edit(doc) or doc, fh)
    (tmp_path / "edited.txt").write_text(dump_config(edited))
    capsys.readouterr()
    assert cli.main([stage, "--config", str(tmp_path / "edited.txt")]) == 2
    assert capsys.readouterr().err == f"error: {path}{message}\n"


STD_RULE = "needs a std >= STD_FLOOR = 1e-08 for every node"


def stats_size_rule(n_nodes, size):
    return (f"must hold {2 * n_nodes} values, the mean and then the std of each of {n_nodes} "
            f"nodes, not {size}")


def presence_rule(want, phase, normalization="per_node_standard"):
    return (f"must {'' if want else 'not '}exist in a {phase} bundle whose config has "
            f"uses_upscaler = True and normalization = {normalization!r}")


def header_rule(name, dims):
    """The error for a {name}.json other than the layers of the config's network
    of widths `dims`, as nn.to_json writes them; braces doubled for str.format."""
    acts = ["relu"] * (len(dims) - 2) + ["identity"]
    layers = json.dumps({"layers": [{"in": a, "out": b, "activation": act}
                                    for a, b, act in zip(dims, dims[1:], acts)]})
    layers = layers.replace("{", "{{").replace("}", "}}")
    return "{" + name + "}: must read " + layers + ", the layers of the config"


ENCODER_RULE = header_rule("encoder", [12, 10, 3])
DECODER_RULE = header_rule("decoder", [3, 10, 12])
UPSCALER_RULE = header_rule("upscaler", [12, 18, 24])


@pytest.mark.parametrize("bundle, edit, message", [
    # lf_stats.npy holds the 12 LF means, then the 12 LF stds; hf_stats.npy
    # the 24 HF means, then the 24 HF stds
    ("model_pretrained", edit_npy("lf_stats", lambda flat: flat[12:]),
     "{lf_stats}: " + stats_size_rule(12, 12)),
    ("model_pretrained", edit_npy("lf_stats", lambda flat: flat[:12]),
     "{lf_stats}: " + stats_size_rule(12, 12)),
    ("model_pretrained", edit_npy("lf_stats", lambda flat: np.array([0.0, 1.0])),
     "{lf_stats}: " + stats_size_rule(12, 2)),
    ("model_pretrained", edit_npy("lf_stats", lambda flat: np.array({"std": flat[12:]})),
     "{lf_stats}: " + PICKLE_RULE),
    ("model_pretrained", edit_npy("lf_stats", lambda flat: flat.astype(str)),
     "{lf_stats}: " + NPY_RULE + "1-D <U32"),
    ("model_final", edit_npy("hf_stats", lambda flat: flat[23:]),
     "{hf_stats}: " + stats_size_rule(24, 25)),
    ("model_final", edit_npy("hf_stats", set_item(24, 0.0)), "{hf_stats}: " + STD_RULE),
    ("model_final", edit_npy("hf_stats", set_item(27, -1.0)), "{hf_stats}: " + STD_RULE),
    ("model_final", edit_npy("hf_stats", set_item(29, 1e-9)), "{hf_stats}: " + STD_RULE),
    ("model_pretrained", edit_npy("lf_stats", set_item(12, math.inf)),
     "{lf_stats}: holds a non-finite parameter"),
    ("model_pretrained", edit_npy("lf_stats", set_item(2, math.nan)),
     "{lf_stats}: holds a non-finite parameter"),
    ("model_pretrained", lambda meta, _: meta.update(phase="bogus"),
     "{meta} phase: unknown phase 'bogus'"),
    ("model_final", remove("hf_stats.npy"), "{hf_stats}: " + presence_rule(True, "fine_tuned")),
    ("model_pretrained", copy_from_final("hf_stats.npy"),
     "{hf_stats}: " + presence_rule(False, "pretrained")),
    ("model_pretrained", remove("lf_stats.npy"),
     "{lf_stats}: " + presence_rule(True, "pretrained")),
    ("model_final", edit_npy("hf_stats", lambda flat: np.array(list(flat), dtype=object)),
     "{hf_stats}: " + PICKLE_RULE),
    # the stats files of a per_node_standard bundle under a config of mode
    # none, and a bundle without them under a per_node_standard config
    ("model_pretrained", edit_config(normalization="none"),
     "{lf_stats}: " + presence_rule(False, "pretrained", "none")),
    ("model_final", edit_config(normalization="none"),
     "{lf_stats}: " + presence_rule(False, "fine_tuned", "none")),
    ("model_final", remove("lf_stats.npy", "hf_stats.npy"),
     "{lf_stats}: " + presence_rule(True, "fine_tuned")),
    ("model_final", remove("upscaler.json"),
     "{upscaler}: " + presence_rule(True, "fine_tuned")),
    ("model_pretrained", copy_from_final("upscaler.json", "upscaler.npy"),
     "{upscaler}: " + presence_rule(False, "pretrained")),
    ("model_pretrained", edit_net("encoder", lambda doc: [1]), ENCODER_RULE),
    # the keys of a version-3 header, but its trainable
    ("model_pretrained",
     edit_net("encoder", lambda doc: {"format_version": 2, "seed": [1, 0], **doc}), ENCODER_RULE),
    ("model_pretrained", edit_net("encoder", lambda doc: doc.update(trainable=5)), ENCODER_RULE),
    ("model_pretrained", edit_net("decoder", lambda doc: doc.update(layers=[1])), DECODER_RULE),
    ("model_final", edit_net("upscaler", lambda doc: doc["layers"][0].update({"in": {}})),
     UPSCALER_RULE),
    ("model_final", edit_net("upscaler", lambda doc: doc["layers"][1].update(out=0)),
     UPSCALER_RULE),
    ("model_pretrained", edit_net("encoder", lambda doc: doc["layers"][0].update(out=11)),
     ENCODER_RULE),
    ("model_pretrained", edit_net("decoder", lambda doc: doc.update(trainable=[False, False])),
     DECODER_RULE),
    # the sizes agree with each other, not with the config
    ("model_final", swap_network("encoder", [5, 10, 3]),
     "{encoder_npy}: the layers hold 163 parameters, the parameter vector 93"),
    ("model_pretrained",
     edit_net("encoder", lambda doc: doc["layers"][0].update(activation="identity")),
     ENCODER_RULE),
    ("model_final", remove("encoder.json"),
     "[Errno 2] No such file or directory: {encoder!r}"),
    ("model_final", edit_npy("encoder", set_item(7, math.nan)),
     "{encoder_npy}: holds a non-finite parameter"),
    ("model_pretrained", edit_npy("decoder", set_item(-1, math.inf)),
     "{decoder_npy}: holds a non-finite parameter"),
    ("model_pretrained", edit_npy("decoder", lambda flat: flat.astype(np.float32)),
     "{decoder_npy}: " + NPY_RULE + "1-D <f4"),
    ("model_pretrained", edit_npy("decoder", lambda flat: flat.astype(">f8")),
     "{decoder_npy}: " + NPY_RULE + "1-D >f8"),
    ("model_pretrained", edit_npy("decoder", lambda flat: flat.reshape(1, -1)),
     "{decoder_npy}: " + NPY_RULE + "2-D <f8"),
    ("model_final", edit_npy("upscaler", lambda flat: flat.round().astype(np.int64)),
     "{upscaler_npy}: " + NPY_RULE + "1-D <i8"),
    ("model_final", edit_npy("upscaler", lambda flat: np.concatenate([flat, [0.0]])),
     "{upscaler_npy}: the layers hold 690 parameters, the parameter vector 691"),
    ("model_pretrained", edit_npy("encoder", lambda flat: npy_bytes(flat) + b"\0"),
     "{encoder_npy}: holds bytes after the array"),
    ("model_pretrained", edit_npy("encoder", lambda flat: npy_bytes(flat)[:-8]),
     "{encoder_npy}: mmap length is greater than file size"),
    # NumPy's header parser raises TokenError and TypeError for these two
    ("model_pretrained", edit_npy("encoder", lambda flat: npy_bytes(flat).replace(b"(", b"\0", 1)),
     "{encoder_npy}: cannot parse the array header: ('EOF in multi-line statement', (2, 0))"),
    ("model_pretrained",
     edit_npy("encoder", lambda flat: npy_bytes(flat).replace(b", 'fortran", b",b'fortran", 1)),
     "{encoder_npy}: cannot parse the array header: "
     "'<' not supported between instances of 'bytes' and 'str'"),
    ("model_final", edit_npy("decoder", lambda flat: b""),
     "{decoder_npy}: EOF: reading magic string, expected 8 bytes got 0"),
    ("model_final", remove("decoder.npy"),
     "[Errno 2] No such file or directory: {decoder_npy!r}"),
    ("model_final", write_text("encoder.json", "{"), ENCODER_RULE),
    ("model_pretrained", lambda meta, _: "",
     "{meta}: Expecting value: line 1 column 1 (char 0)"),
    ("model_final", lambda meta, _: meta.update(hf_train_names=5),
     "{meta} hf_train_names: must be a list of snapshot names"),
], ids=["lf-stats-without-mean", "lf-stats-without-std", "lf-stats-of-one-node",
        "lf-stats-std-a-mapping", "lf-stats-mean-with-a-string", "hf-stats-mean-of-one-node",
        "hf-stats-std-zero", "hf-stats-std-negative", "hf-stats-std-below-the-floor",
        "lf-stats-std-infinite", "lf-stats-mean-nan", "unknown-phase", "fine-tuned-without-hf-stats",
        "hf-stats-without-fine-tuning", "no-lf-stats", "hf-stats-as-list",
        "pretrained-stats-under-mode-none", "fine-tuned-stats-under-mode-none",
        "no-stats-under-mode-per-node-standard", "fine-tuned-without-upscaler", "pretrained-with-upscaler", "network-not-a-mapping",
        "network-without-trainable", "trainable-an-int", "layer-an-int", "layer-in-a-mapping",
        "layer-out-zero", "layers-and-vector-of-other-sizes", "frozen-decoder",
        "encoder-of-other-widths", "encoder-json-of-other-activation", "encoder-json-missing",
        "encoder-npy-nan",
        "decoder-npy-inf", "npy-float32", "npy-big-endian", "npy-2-d", "npy-int64",
        "npy-one-value-too-many", "npy-trailing-bytes", "npy-truncated", "npy-header-with-a-null",
        "npy-header-with-a-bytes-key", "npy-empty", "npy-missing",
        "network-not-json", "meta-not-json", "hf-train-names-an-int"])
def test_inconsistent_bundle_exits_2(tmp_path, capsys, pipeline, bundle, edit, message):
    code, err, bundle_dir = run_on_edited_bundle(tmp_path, capsys, pipeline, bundle, edit)
    assert code == 2
    assert err == "error: " + message.format(**bundle_paths(bundle_dir)) + "\n"


@pytest.mark.parametrize("lines, message", [
    ("score_kind = bogus", "unknown score kind 'bogus'"),
    ("delta = 1.5", "delta must be in (0, 1), got 1.5"),
    ("delta = 0", "delta must be in (0, 1), got 0.0"),
    ("delta = nan", "delta must be in (0, 1), got nan"),
    # one of the 16 training pairs: the rank rule for delta = 0.5 passes
    ("cal_fraction = 0.05\ndelta = 0.5",
     "cal_fraction gives 1 calibration samples, too few for the modulation, which needs 2"),
], ids=["score-kind-bogus", "delta-above-1", "delta-zero", "delta-nan", "one-calibration-sample"])
def test_bad_score_kind_or_delta_exits_2_before_any_split_trains(tmp_path, capsys, monkeypatch,
                                                                 pipeline, lines, message):
    import shutil
    root, cfg, _ = pipeline
    bad = parse_config(dump_config(cfg) + lines + "\n")
    bad.out_dir = str(tmp_path / "out")
    shutil.copytree(root / "out", bad.out_dir)
    (tmp_path / "bad.txt").write_text(dump_config(bad))
    tuned = []
    monkeypatch.setattr(mfae, "fine_tune", lambda *args, **kwargs: tuned.append(args))
    capsys.readouterr()
    assert cli.main(["calibrate", "--config", str(tmp_path / "bad.txt")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert tuned == []


@pytest.mark.parametrize("mode", ["global_minmax", "bogus"])
def test_unknown_normalization_exits_2_before_any_output(tmp_path, capsys, pipeline, mode):
    _, cfg, _ = pipeline
    bad = dataclasses.replace(cfg, out_dir=str(tmp_path / "out"), normalization=mode)
    (tmp_path / "c.txt").write_text(dump_config(bad))
    capsys.readouterr()
    assert cli.main(["pretrain", "--config", str(tmp_path / "c.txt")]) == 2
    assert capsys.readouterr().err == f"error: unknown normalization mode {mode!r}\n"
    assert not (tmp_path / "out").exists()


def test_full_chain_reruns_byte_identical(pipeline, tmp_path_factory):
    root, cfg, cfg_path = pipeline
    rerun = tmp_path_factory.mktemp("rerun")
    cfg2 = parse_config(dump_config(cfg))
    cfg2.out_dir = str(rerun / "out")
    cfg2.lf_set = str(rerun / "out" / "lf.csv")
    p = rerun / "config.txt"
    p.write_text(dump_config(cfg2))
    run_chain(rerun, p)
    assert file_digest(rerun / "out" / "report.json") == file_digest(root / "out" / "report.json")
    assert file_digest(rerun / "out" / "calibration.json") == \
        file_digest(root / "out" / "calibration.json")


def tree_digests(out):
    """sha256 of every file under `out` except the parse cache."""
    return {os.path.relpath(os.path.join(d, n), out): file_digest(os.path.join(d, n))
            for d, dirs, names in os.walk(out) if "cache" not in os.path.relpath(d, out).split(os.sep)
            for n in names}


def chain_inputs(root):
    """The chain's HF set, recipe and config.txt under `root`; the config's path."""
    save_csv(make_pressure_set(60, 24, seed=1), root / "hf.csv")
    recipe = DegradationRecipe([PodTruncate(energy=0.9), Fps(m=12, seed=11)])
    (root / "recipe.json").write_text(recipe.to_json())
    cfg_path = root / "config.txt"
    cfg_path.write_text(dump_config(chain_config(root)))
    return cfg_path


def test_stages_over_a_hot_cache_write_the_bytes_of_a_cold_run(tmp_path, monkeypatch):
    cfg_path = chain_inputs(tmp_path)
    run_chain(tmp_path, cfg_path)  # from an empty out/: degrade and pretrain fill the cache
    cold = tree_digests(tmp_path / "out")
    assert "report.json" in cold and len(cold) > 10
    assert len(os.listdir(tmp_path / "out" / "cache")) == 2  # hf.csv and lf.csv

    def no_parse(*args):
        raise AssertionError("parsed instead of read from the cache")

    monkeypatch.setattr(data, "_parse_csv", no_parse)
    run_chain(tmp_path, cfg_path)
    assert tree_digests(tmp_path / "out") == cold


def test_calibrate_writes_the_same_bytes_whatever_the_blas_thread_setting(tmp_path):
    # an a7-like shape (260 HF nodes, 104 LF nodes), where OpenBLAS splits the
    # up-scaler's products by its thread count; each child calibrates a copy
    # of one pretrained out/
    import shutil
    save_csv(make_pressure_set(80, 260, seed=1), tmp_path / "hf.csv")
    recipe = DegradationRecipe([PodTruncate(energy=0.99), Fps(m=104, seed=11)])
    (tmp_path / "recipe.json").write_text(recipe.to_json())
    cfg = dataclasses.replace(
        chain_config(tmp_path), d_lf=104, d_hf=260, encoder_widths="16", decoder_widths="16",
        pretrain_epochs=20, max_finetune_epochs=30, patience=10, cal_fraction=0.3,
        hf_fraction=0.5)
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(dump_config(cfg))
    for cmd in ("degrade", "pretrain"):
        assert cli.main([cmd, "--config", str(cfg_path)]) == 0, f"{cmd} failed"
    env = child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    one_cpu = {min(os.sched_getaffinity(0))}
    children = {  # name: (OPENBLAS_NUM_THREADS, the CPUs the child may use)
        "unset": (None, None), "one": ("1", None), "two": ("2", None), "one-cpu": (None, one_cpu)}
    written = {}
    for name, (threads, cpus) in children.items():
        run = parse_config(dump_config(cfg))
        run.out_dir = str(tmp_path / name)
        shutil.copytree(cfg.out_dir, run.out_dir, ignore=shutil.ignore_patterns("cache"))
        (tmp_path / f"{name}.txt").write_text(dump_config(run))
        subprocess.run(
            [sys.executable, "-m", "mfcp.cli", "calibrate", "--config", str(tmp_path / f"{name}.txt")],
            env=env if threads is None else dict(env, OPENBLAS_NUM_THREADS=threads),
            preexec_fn=None if cpus is None else lambda cpus=cpus: os.sched_setaffinity(0, cpus),
            capture_output=True, check=True)
        written[name] = (tmp_path / name / "calibration.json").read_bytes()
    assert len(set(written.values())) == 1, {name: hashlib.sha256(b).hexdigest()[:12]
                                             for name, b in written.items()}


def test_stages_rerun_out_of_order_over_one_out_dir_keep_its_bytes(tmp_path):
    """The benchmark re-runs single stages over the out/ of its first chain, in
    an order its timings set: every stage passes and leaves every byte as it was."""
    cfg_path = chain_inputs(tmp_path)
    run_chain(tmp_path, cfg_path)
    first = tree_digests(tmp_path / "out")
    for cmd in ("evaluate", "pretrain", "evaluate", "degrade", "finetune", "calibrate",
                "finetune", "evaluate"):
        assert cli.main([cmd, "--config", str(cfg_path)]) == 0, f"{cmd} failed"
    assert tree_digests(tmp_path / "out") == first


def test_reruns_that_drop_an_optional_bundle_file_leave_bundles_that_load(tmp_path):
    """The chain re-run in one out/ with the up-scaler switched off, then with
    normalization none: each save removes the files of the bundle before it
    that its own bundle does not hold, so evaluate loads model_final."""
    save_csv(make_pressure_set(60, 24, seed=1), tmp_path / "hf.csv")
    (tmp_path / "recipe.json").write_text(DegradationRecipe([PodTruncate(energy=0.9)]).to_json())
    cfg = dataclasses.replace(chain_config(tmp_path), d_lf=24, force_adapter=True,
                              pretrain_epochs=20, max_finetune_epochs=10)
    final = tmp_path / "out" / "model_final"
    for change, files in [({}, {"upscaler.json", "upscaler.npy", "lf_stats.npy", "hf_stats.npy"}),
                          ({"force_adapter": False}, {"lf_stats.npy", "hf_stats.npy"}),
                          ({"normalization": "none"}, set())]:
        cfg = dataclasses.replace(cfg, **change)
        (tmp_path / "config.txt").write_text(dump_config(cfg))
        run_chain(tmp_path, tmp_path / "config.txt")
        assert set(os.listdir(final)) == files | {"meta.json", "encoder.json", "encoder.npy",
                                                  "decoder.json", "decoder.npy"}
    assert "lf_stats.npy" not in os.listdir(tmp_path / "out" / "model_pretrained")


# --- fuzzed config documents and recipes ------------------------------------------


def fuzz_root(tmp_path_factory):
    """A tiny HF set, its degraded LF set and a recipe, made once per session."""
    root = tmp_path_factory.getbasetemp() / "fuzz_cli"
    if not root.exists():
        root.mkdir()
        save_csv(make_pressure_set(30, 16, seed=4), root / "hf.csv")
        (root / "recipe.json").write_text(DegradationRecipe([Fps(m=8, seed=3)]).to_json())
        cfg = PipelineConfig(hf_set=str(root / "hf.csv"), recipe=str(root / "recipe.json"),
                             out_dir=str(root / "lf"))
        (root / "c.txt").write_text(dump_config(cfg))
        assert cli.main(["degrade", "--config", str(root / "c.txt")]) == 0
    return root


def run_cli(*argv):
    """cli.main's exit code; a code other than 0 must come with an error line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    assert code in (0, 2, 3)
    if code:
        assert err.getvalue().startswith("error: "), err.getvalue()
    return code


PATH_KEYS = ("lf_set", "hf_set", "out_dir", "recipe")
# digits only in values of at most three characters, so that no width or
# epoch count exceeds 999
CONFIG_VALUES = st.one_of(
    st.sampled_from(["", "0", "1", "-1", "2", "3", "8", "16", "nan", "inf", "-inf", "1e308",
                     "0.5", "1e-3", "true", "no", "maybe", "8,3", "8,,8", "1_0", " 7 ", "none",
                     "global_minmax", "per_node_standard", "linf", "0x10"]),
    st.text(alphabet="0123456789.-+e,_ anx", max_size=3),
)
CONFIG_LINES = st.builds("{} = {}".format,
                         st.sampled_from([f.name for f in dataclasses.fields(PipelineConfig)
                                          if f.name not in PATH_KEYS] + ["bogus", ""]),
                         CONFIG_VALUES)
JUNK_LINES = st.text(alphabet="ab_=# \t\r\n\x00\u00e9\u2028", max_size=12)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lines=st.lists(CONFIG_LINES, max_size=6), junk=st.lists(JUNK_LINES, max_size=1))
def test_fuzzed_config_exits_0_2_or_3(tmp_path_factory, lines, junk):
    root = fuzz_root(tmp_path_factory)
    base = PipelineConfig(d_lf=8, d_hf=16, encoder_widths="6", latent_dim=2, decoder_widths="6",
                          pretrain_epochs=5)
    paths = {"lf_set": root / "lf" / "lf.csv", "hf_set": root / "hf.csv", "out_dir": root / "out",
             "recipe": root / "recipe.json"}
    doc = dump_config(base) + "\n".join(junk + lines) + "\n"
    doc += "".join(f"{key} = {path}\n" for key, path in paths.items())  # later lines win
    (root / "fuzz.txt").write_text(doc)
    for cmd in ("degrade", "pretrain"):
        run_cli(cmd, "--config", str(root / "fuzz.txt"))


JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-2, 40), st.floats(),
                        st.text(max_size=3))
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
# well-formed stage objects with fuzzed values, a stray field now and then
STAGE_DOCS = st.one_of(*[
    st.fixed_dictionaries({"kind": st.just(kind)},
                          optional={**{f.name: JSON_LEAVES for f in dataclasses.fields(cls)},
                                    "stray": JSON_LEAVES})
    for kind, cls in lofi.STAGE_TYPES.items()
])
RECIPE_TEXTS = st.one_of(
    st.lists(st.one_of(STAGE_DOCS, JSON_VALUES), max_size=3).map(
        lambda stages: json.dumps({"stages": stages})),
    JSON_VALUES.map(json.dumps),
    st.text(max_size=20),
)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(recipe=st.one_of(RECIPE_TEXTS.map(str.encode), st.binary(max_size=20)))
def test_fuzzed_recipe_exits_0_2_or_3(tmp_path_factory, recipe):
    root = fuzz_root(tmp_path_factory)
    (root / "fuzz.json").write_bytes(recipe)
    cfg = PipelineConfig(hf_set=str(root / "hf.csv"), recipe=str(root / "fuzz.json"),
                         out_dir=str(root / "out"))
    (root / "fuzz_recipe.txt").write_text(dump_config(cfg))
    run_cli("degrade", "--config", str(root / "fuzz_recipe.txt"))


def fuzz_bundles(tmp_path_factory):
    """A pretrained and a fine-tuned bundle of tiny networks, made once per session."""
    root = tmp_path_factory.getbasetemp() / "fuzz_bundles"
    if not root.exists():
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(3, 8)), rng.normal(size=(4, 8))
        config = mfae.MfaeConfig(d_lf=3, d_hf=4, encoder_widths=[2], latent_dim=1,
                                 decoder_widths=[2], pretrain_epochs=1)
        model = mfae.pretrain(config, x)
        mfae.save_model(model, root / "pretrained", extra={"lf_train_names": ["a"]})
        mfae.fine_tune(model, x, y, epochs=1)
        mfae.save_model(model, root / "fine_tuned", extra={
            "lf_train_names": ["a"], "hf_train_names": ["b"], "epochs_trained": 1})
    return root


def entry_paths(doc, depth=3):
    """The key paths of a JSON document's entries down to `depth` levels; () is the document."""
    paths = [()]
    if depth and isinstance(doc, (dict, list)):
        for key in (doc if isinstance(doc, dict) else range(len(doc))):
            paths += [(key, *path) for path in entry_paths(doc[key], depth - 1)]
    return paths


DROP = object()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_bundle_loads_or_raises_value_error(tmp_path_factory, data):
    """One entry of meta.json or of a network header replaced with random JSON,
    or dropped: load_model loads the bundle or raises ValueError (the CLI's exit
    2), and a bundle that loads saves and loads again."""
    root, work = fuzz_work_bundle(tmp_path_factory, data)
    name = data.draw(st.sampled_from(sorted(n for n in os.listdir(work) if n.endswith(".json"))))
    doc = json.loads((work / name).read_text())
    path = data.draw(st.sampled_from(entry_paths(doc)))
    value = data.draw(st.one_of(st.just(DROP), JSON_VALUES) if path else JSON_VALUES)
    if not path:
        doc = value
    else:
        holder = doc
        for key in path[:-1]:
            holder = holder[key]
        if value is DROP:
            del holder[path[-1]]
        else:
            holder[path[-1]] = value
    (work / name).write_text(json.dumps(doc))
    load_resave_load(root, work)


def fuzz_work_bundle(tmp_path_factory, data):
    """The fuzz root and a fresh copy, work/, of one of its bundles."""
    import shutil
    root = fuzz_bundles(tmp_path_factory)
    work = root / "work"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(root / data.draw(st.sampled_from(["pretrained", "fine_tuned"])), work)
    return root, work


def load_resave_load(root, work):
    """load_model loads `work` or raises ValueError (the CLI's exit 2); a bundle
    that loads saves and loads again."""
    import shutil
    try:
        model = mfae.load_model(work)
    except ValueError:
        return
    mfae.save_model(model, root / "resaved", extra=model.provenance)
    mfae.load_model(root / "resaved")
    shutil.rmtree(root / "resaved")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_parameter_vector_loads_or_raises_value_error(tmp_path_factory, data):
    """A network's or a normalization record's .npy cut short, with a byte
    flipped, bytes appended or written over, or saved again as another dtype,
    shape or byte order: the bundle loads or raises ValueError, never
    EOFError, TypeError or OSError."""
    root, work = fuzz_work_bundle(tmp_path_factory, data)
    path = work / data.draw(st.sampled_from(sorted(n for n in os.listdir(work)
                                                   if n.endswith(".npy"))))
    raw = path.read_bytes()
    at = data.draw(st.integers(0, len(raw) - 1))
    flat = np.load(path)
    kind = data.draw(st.sampled_from(["truncate", "flip", "append", "overwrite", "resave"]))
    if kind == "truncate":
        raw = raw[:at]
    elif kind == "flip":
        raw = raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255))]) + raw[at + 1:]
    elif kind == "append":
        raw += data.draw(st.binary(min_size=1, max_size=16))
    elif kind == "overwrite":
        junk = data.draw(st.binary(min_size=1, max_size=16))
        raw = raw[:at] + junk + raw[at + len(junk):]
    else:
        raw = npy_bytes(data.draw(st.sampled_from([
            flat.astype(np.float32), flat.reshape(1, -1), flat.astype(">f8"),
            np.array(list(flat), dtype=object)])))
    path.write_bytes(raw)
    load_resave_load(root, work)
