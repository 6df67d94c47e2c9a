"""Smoke tests of the benchmark itself: generators, checks and tracer.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's own test run. A
tiny workload runs the real CLI twice (untraced and traced), which takes a
few seconds.
"""

import hashlib
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
from workloads import (CHECKS, WORKLOADS, Workload, check_evaluate, pressure_set,  # noqa: E402
                       surface_set)

SMOKE = Workload(
    name="smoke",
    make_set=lambda seed: pressure_set(60, 40, seed),
    recipe=[{"kind": "pod_truncate", "energy": 0.9}, {"kind": "fps", "m": 20, "seed": 17}],
    config={"d_lf": 20, "d_hf": 40, "encoder_widths": "8", "latent_dim": 2,
            "decoder_widths": "8", "learning_rate": 3e-3, "pretrain_epochs": 30,
            "max_finetune_epochs": 20, "patience": 5, "calibration_splits": 2,
            "cal_fraction": 0.5, "hf_fraction": 0.5},
    train_pairs=22,
    test_pairs=8,
)


@pytest.fixture(scope="module")
def smoke_run():
    base = os.path.join(os.path.dirname(HERE), ".perfbench", f"selftest-{os.getpid()}")
    workdir = os.path.join(base, "w")
    SMOKE.generate(3, workdir)
    smoke = run.Run(SMOKE, workdir)
    assert smoke.pipeline()
    digests = [smoke.digests()]
    assert smoke.pipeline(traced=True)
    digests.append(smoke.digests())
    yield workdir, smoke, digests
    run.remove_workdir(base)


@pytest.mark.parametrize("make", [lambda s: pressure_set(30, 25, s), lambda s: surface_set(20, 200, s)])
def test_generators_are_seeded(make):
    a, b, c = make(1), make(1), make(2)
    assert np.array_equal(a.fields, b.fields) and np.array_equal(a.params, b.params)
    assert not np.array_equal(a.fields, c.fields)
    assert np.all(np.isfinite(a.fields))


def test_pressure_set_matches_a7_data():
    # tests/helpers.make_pressure_set(400, 260, seed=101) is the A7 data set
    s = pressure_set(400, 260, 101)
    digest = hashlib.sha256(s.fields.tobytes()).hexdigest()
    assert digest == "400581c93f84a60e7c7a2ec0a0e46664f9332744a61194c073e54818836b596f"


def test_workload_inputs_are_written(tmp_path):
    for wl in WORKLOADS.values():
        text = wl.config_text(7)
        assert "seed = 108" in text and "out_dir = out" in text
    SMOKE.generate(5, str(tmp_path))
    names = sorted(os.listdir(tmp_path))
    assert names == ["config.txt", "hf.csv", "hf_params.csv", "recipe.json"]


def test_pipeline_passes_every_check(smoke_run):
    _, smoke, digests = smoke_run
    assert smoke.failures == [] and smoke.attempted == 10
    assert digests[0] == digests[1]


def test_measure_fills_the_budget_with_single_stages(tmp_path):
    SMOKE.generate(4, str(tmp_path))
    smoke = run.Run(SMOKE, str(tmp_path))
    assert run.measure(smoke, 8.0) is not None
    counts = [len(smoke.times[stage]) for stage in run.STAGES]
    assert smoke.failures == [] and sum(counts) == smoke.attempted > 5
    # every smoke stage fits, so the fewest-samples rule goes round robin
    assert max(counts) - min(counts) <= 1


def test_corrupted_report_fails_the_check(smoke_run):
    workdir, _, _ = smoke_run
    out = os.path.join(workdir, "out")
    path = os.path.join(out, "report.json")
    with open(path) as fh:
        good = fh.read()
    assert check_evaluate(SMOKE, out) == []
    try:
        doc = json.loads(good)
        doc["test"]["mae"] = float("nan")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert any("finite" in e for e in check_evaluate(SMOKE, out))
    finally:
        with open(path, "w") as fh:
            fh.write(good)


def test_corrupted_prediction_fails_the_check(smoke_run):
    workdir, _, _ = smoke_run
    out = os.path.join(workdir, "out")
    name = sorted(os.listdir(os.path.join(out, "predictions")))[0]
    path = os.path.join(out, "predictions", name)
    with open(path) as fh:
        good = fh.read()
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(good.splitlines()[:-1]) + "\n")
        assert any("rows" in e for e in CHECKS["evaluate"](SMOKE, out))
    finally:
        with open(path, "w") as fh:
            fh.write(good)


def test_tracer_counts(smoke_run):
    workdir, smoke, _ = smoke_run
    metrics = {k: v for k, (v, _) in layers.aggregate(smoke.spans, 0.0).items()}
    with open(os.path.join(workdir, "out", "calibration.json")) as fh:
        cal = json.load(fh)
    cfg = SMOKE.config
    split_epochs = sum(min(s["epoch"] + cfg["patience"], cfg["max_finetune_epochs"])
                       for s in cal["splits"])
    assert metrics["conformal.split_epochs_run"] == split_epochs
    assert metrics["nn.adam_step.calls"] == cfg["pretrain_epochs"] + split_epochs + cal["E_star"]
    assert metrics["nn.train.epochs"] == metrics["nn.adam_step.calls"]
    assert metrics["mfae.fine_tune.calls"] == cfg["calibration_splits"] + 1
    assert metrics["conformal.useful_epoch_ratio"] == pytest.approx(
        sum(s["epoch"] for s in cal["splits"]) / split_epochs)
    # load_csv: degrade 1, pretrain 2, calibrate 2, finetune 2, evaluate 2
    assert metrics["data.load_csv.calls"] == 9
    assert metrics["nn.adam_step.mparam_updates"] == pytest.approx(
        run.computed_work(SMOKE, workdir)["adam_mparam_updates"])
    # validation forwards: one per epoch run plus the initial one, per split
    assert 0 < metrics["nn.forward.val_s"] < metrics["nn.forward.s"]
    assert 0 < metrics["nn.forward.frozen_gflop_share"] < 1
    for name, value in metrics.items():
        assert math.isfinite(value), name
        if not name.startswith("trace."):
            assert value >= 0, name


def test_self_time_uses_the_union_of_children():
    span = ["p", 0.0, 10.0, -1, 0, None]
    kids = [["c", 1.0, 4.0, 0, 1, None], ["c", 2.0, 5.0, 0, 2, None], ["c", 8.0, 12.0, 0, 1, None]]
    assert layers.self_time(span, kids) == pytest.approx(10.0 - 4.0 - 2.0)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
