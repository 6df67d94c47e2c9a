import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mfcp import cli, data, lofi, mfae
from mfcp.cli import PipelineConfig, dump_config, parse_config
from mfcp.data import load_csv, save_csv
from mfcp.lofi import DegradationRecipe, Fps, PodTruncate

from helpers import make_pressure_set


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
    for name in ("encoder.json", "decoder.json"):
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
    pre = root / "out" / "model_pretrained" / "encoder.json"
    fin = root / "out" / "model_final" / "encoder.json"
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
    assert file_digest(os.path.join(final, "decoder.json")) == \
        file_digest(str(root / "out" / "model_pretrained" / "decoder.json"))
    assert os.path.exists(os.path.join(final, "upscaler.json"))
    meta = json.loads(open(os.path.join(final, "meta.json")).read())
    assert meta["epochs_trained"] == 0


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
    message = f"error: {layer}, more than MAX_LAYER_WEIGHTS = {mfae.MAX_LAYER_WEIGHTS}\n"
    # from the config: pretrain stops before it writes anything
    big = parse_config(dump_config(cfg) + f"{key} = {str(value).strip('[]')}\n")
    big.out_dir = str(tmp_path / "big")
    (tmp_path / "big.txt").write_text(dump_config(big))
    capsys.readouterr()
    assert cli.main(["pretrain", "--config", str(tmp_path / "big.txt")]) == 2
    assert capsys.readouterr().err == message
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
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("edit, message", [
    (lambda meta: meta["config"].update(bogus=1),
     "{meta} config: unknown key(s) ['bogus'], missing key(s) []"),
    (lambda meta: meta["config"].update(adam=5), "{meta} config adam must be a mapping, got 5"),
    (lambda meta: meta["lf_stats"].update(mode="bogus"), "unknown normalization mode 'bogus'"),
], ids=["unknown-config-key", "adam-not-a-mapping", "unknown-norm-mode"])
def test_malformed_bundle_meta_exits_2(tmp_path, capsys, pipeline, edit, message):
    import shutil
    root, cfg, _ = pipeline
    edited = dataclasses.replace(cfg, out_dir=str(tmp_path / "edited"))
    shutil.copytree(root / "out", edited.out_dir)
    meta_path = os.path.join(edited.out_dir, "model_pretrained", "meta.json")
    meta = json.loads(open(meta_path).read())
    edit(meta)
    json.dump(meta, open(meta_path, "w"))
    (tmp_path / "edited.txt").write_text(dump_config(edited))
    capsys.readouterr()
    assert cli.main(["calibrate", "--config", str(tmp_path / "edited.txt")]) == 2
    assert capsys.readouterr().err == f"error: {message.format(meta=meta_path)}\n"


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


def test_stages_over_a_hot_cache_write_the_bytes_of_a_cold_run(tmp_path, monkeypatch):
    save_csv(make_pressure_set(60, 24, seed=1), tmp_path / "hf.csv")
    recipe = DegradationRecipe([PodTruncate(energy=0.9), Fps(m=12, seed=11)])
    (tmp_path / "recipe.json").write_text(recipe.to_json())
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(dump_config(chain_config(tmp_path)))
    run_chain(tmp_path, cfg_path)  # from an empty out/: degrade and pretrain fill the cache
    cold = tree_digests(tmp_path / "out")
    assert "report.json" in cold and len(cold) > 10
    assert len(os.listdir(tmp_path / "out" / "cache")) == 2  # hf.csv and lf.csv

    def no_parse(*args):
        raise AssertionError("parsed instead of read from the cache")

    monkeypatch.setattr(data, "_parse_csv", no_parse)
    run_chain(tmp_path, cfg_path)
    assert tree_digests(tmp_path / "out") == cold


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
