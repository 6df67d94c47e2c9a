"""End-to-end benchmark of the five-stage mfcp CLI.

    python3 perfbench/run.py --workload a7_cli --seed 1 --seconds 36 --trace 0

Run from the repository root. The benchmark writes one workload's inputs
from the seed, then runs `degrade -> pretrain -> calibrate -> finetune ->
evaluate`, each stage as its own `python3 -m mfcp.cli <stage> --config
config.txt` child with the CLI defaults, and checks every stage's outputs.

--trace 0  runs one pass of the five stages, then fills the rest of
           --seconds with more runs of single stages (see `measure`), and
           reports the mean time of each stage (see `end_to_end`).
--trace 1  runs one pass untraced and one under perfbench/tracer.py, and
           reports the per-layer metrics plus the tracing overhead (traced
           minus untraced pipeline_s).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; `attempted` and `failed`
count stage runs. The exit code is 0 when every check passed, 1 when a
check failed and 2 when the repository or the arguments are unusable.
Work files go to .perfbench/ under the repository root and are removed at
the end.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import layers
from layers import STAGES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# (name, unit) in report order; BENCHMARK.json lists the same names.
END_TO_END = (
    [("setup_s", "s")]
    + [(f"{stage}_s", "s") for stage in STAGES]
    + [("pipeline_s", "s"), ("peak_rss_mb", "MB")]
)
# Printed with every result but not bounded: they depend on the seed's data
# (see README.md), and the digests pin them for a fixed seed.
QUALITY = (("test_mae", "mae", "field-units"), ("test_coverage", "pointwise", "fraction"),
           ("test_band_width", "band_width_mean", "field-units"))

SETUP_REPEATS = 3  # at least, and at least SETUP_SECONDS in total
SETUP_SECONDS = 2.0
DIGESTED = ("calibration.json", "report.json")


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def warm_up():
    """Import the CLI and run a small SVD and matmul in a child process.

    On a shared host the BLAS/LAPACK code pages drop out of the page cache
    while the machine idles; the first SVD after that took 1.06 s instead of
    0.04 s. Users running stages back to back do not pay this, so the
    benchmark pays it here, before any timing.
    """
    code = ("import mfcp.cli, numpy as np; a = np.random.default_rng(0).random((260, 400)); "
            "np.linalg.svd(a @ a.T)")
    subprocess.run([sys.executable, "-c", code], env=_child_env(), check=True)


def run_stage(stage, workdir, traced=False):
    """Run one CLI stage as a child process; (seconds, exit code, peak RSS MB)."""
    env = _child_env()
    if traced:
        cmd = [sys.executable, os.path.join(HERE, "tracer.py")]
        env["PERFBENCH_SPANS"] = os.path.join(workdir, f"spans-{stage}.json")
    else:
        cmd = [sys.executable, "-m", "mfcp.cli"]
    cmd += [stage, "--config", "config.txt"]
    with open(os.path.join(workdir, f"{stage}.log"), "w") as log:
        env["PERFBENCH_SPAWN_WALL"] = repr(time.time())
        start = time.perf_counter()
        child = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=log, stderr=log)
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return seconds, child.returncode, usage.ru_maxrss / 1024.0


class Run:
    """Stage samples, failures and outputs of one benchmark run."""

    def __init__(self, wl, workdir):
        self.wl = wl
        self.workdir = workdir
        self.out = os.path.join(workdir, "out")
        self.times = {stage: [] for stage in STAGES}
        self.rss = {stage: [] for stage in STAGES}
        self.attempted = 0
        self.failures = []  # (stage, message)
        self.spans = {}

    @property
    def failed(self):
        return len(self.failures)

    def stage(self, stage, traced=False):
        """Run one stage and its check; False if it failed."""
        from workloads import CHECKS

        self.attempted += 1
        seconds, code, rss = run_stage(stage, self.workdir, traced)
        if code != 0:
            with open(os.path.join(self.workdir, f"{stage}.log")) as fh:
                tail = fh.read()[-300:].strip()
            self.failures.append((stage, f"exit code {code}: {tail}"))
            return False
        try:
            errors = CHECKS[stage](self.wl, self.out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errors = [f"unreadable output: {exc!r}"]
        if errors:
            self.failures.append((stage, "; ".join(errors)))
            return False
        self.times[stage].append(seconds)
        self.rss[stage].append(rss)
        if traced:
            with open(os.path.join(self.workdir, f"spans-{stage}.json")) as fh:
                self.spans[stage] = json.load(fh)
        return True

    def pipeline(self, traced=False):
        """One pass of the five stages from a fresh output directory.

        A failed stage ends the pass; the stages after it count as attempted
        and failed."""
        shutil.rmtree(self.out, ignore_errors=True)
        for i, stage in enumerate(STAGES):
            if not self.stage(stage, traced):
                for rest in STAGES[i + 1:]:
                    self.attempted += 1
                    self.failures.append((rest, "not run: an earlier stage failed"))
                return False
        return True

    def digests(self):
        return {name: _sha256(os.path.join(self.out, name)) for name in DIGESTED}

    def median(self, stage):
        return statistics.median(self.times[stage])


def measure(run, seconds):
    """Fill `seconds` with stage runs and return the output digests.

    One pass runs the stages in order. While time is left, the stage with
    the fewest samples, among those whose median still fits, runs again in
    the outputs of the first pass (every stage rewrites its outputs with
    the same bytes). Every stage so gets about seconds / pipeline_s
    samples, and the run ends within one stage of `seconds`.
    """
    start = time.perf_counter()
    if not run.pipeline():
        return None
    digests = run.digests()
    while True:
        left = seconds - (time.perf_counter() - start)
        fits = [stage for stage in STAGES if run.median(stage) <= left]
        if not fits:
            break
        if not run.stage(min(fits, key=lambda stage: len(run.times[stage]))):
            return None
    if run.digests() != digests:
        run.failures.append(("evaluate", "calibration.json/report.json changed when re-run"))
        return None
    return digests


def computed_work(wl, workdir):
    """Work counts derived from layer shapes and file sizes (computed, not measured)."""
    out = os.path.join(workdir, "out")
    shapes = {}
    for net in ("encoder", "decoder", "upscaler"):
        path = os.path.join(out, "model_final", f"{net}.json")
        if os.path.exists(path):
            with open(path) as fh:
                shapes[net] = [(layer["in"], layer["out"]) for layer in json.load(fh)["layers"]]
    macs = {net: sum(i * o for i, o in layers) for net, layers in shapes.items()}
    params = {net: sum(i * o + o for i, o in layers) for net, layers in shapes.items()}
    with open(os.path.join(out, "calibration.json")) as fh:
        cal = json.load(fh)
    cfg = wl.config
    split_epochs = sum(min(s["epoch"] + cfg["patience"], cfg["max_finetune_epochs"])
                       for s in cal["splits"])
    ft_params = params["decoder"] + params.get("upscaler", 0)
    pre_params = params["encoder"] + params["decoder"]

    def mb(*names):
        return sum(os.path.getsize(os.path.join(workdir, n)) for n in names) / 1e6

    pred_dir = os.path.join(out, "predictions")
    return {
        "finetune_forward_macs_per_sample": sum(macs.values()),
        "frozen_encoder_macs_per_sample": macs["encoder"],
        "frozen_share_of_finetune_forward": macs["encoder"] / sum(macs.values()),
        "pretrain_trainable_params": pre_params,
        "finetune_trainable_params": ft_params,
        "split_epochs_run": split_epochs,
        "adam_mparam_updates": (pre_params * cfg["pretrain_epochs"]
                                + ft_params * (split_epochs + cal["E_star"])) / 1e6,
        "hf_csv_mb": mb("hf.csv", "hf_params.csv"),
        "lf_csv_mb": mb("out/lf.csv", "out/lf_params.csv"),
        "prediction_csv_mb": sum(os.path.getsize(os.path.join(pred_dir, n))
                                 for n in os.listdir(pred_dir)) / 1e6,
    }


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = 0
    pkg = os.path.join(SRC, "mfcp")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "src_mfcp_lines": lines,
    }


def setup(wl, seed, base):
    """Write the inputs into fresh directories, at least SETUP_REPEATS times
    and for at least SETUP_SECONDS; (median seconds, last directory)."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        workdir = os.path.join(base, f"w{len(times)}")
        start = time.perf_counter()
        wl.generate(seed, workdir)
        times.append(time.perf_counter() - start)
    return statistics.median(times), workdir


def end_to_end(setup_s, run):
    """Each stage's mean time, their sum, and the largest median peak RSS.

    Stage times take the mean, not the median, of their samples: the
    reference host switches between a fast and a slow mode about 40% apart,
    so the median of a run jumps between the modes. Over the same four
    ten-seed sets the largest spread of any stage was 0.19 with means and
    0.25 with medians.
    """
    values = {"setup_s": setup_s}
    for stage in STAGES:
        values[f"{stage}_s"] = statistics.fmean(run.times[stage])
    values["pipeline_s"] = sum(values[f"{stage}_s"] for stage in STAGES)
    values["peak_rss_mb"] = max(statistics.median(run.rss[stage]) for stage in STAGES)
    return {name: (values[name], unit) for name, unit in END_TO_END}


def remove_workdir(base):
    """Delete a run's work directory, and .perfbench/ once it is empty."""
    shutil.rmtree(base, ignore_errors=True)
    parent = os.path.dirname(base)
    if os.path.isdir(parent) and not os.listdir(parent):
        os.rmdir(parent)


def _print_metrics(title, metrics):
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:>14.6g} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mfcp", "cli.py")):
        print(f"error: no mfcp sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    base = os.path.join(ROOT, ".perfbench", f"{wl.name}-{args.seed}-{os.getpid()}")
    metrics = {}
    try:
        setup_s, workdir = setup(wl, args.seed, base)
        warm_up()
        run = Run(wl, workdir)
        if args.trace:
            ok = run.pipeline() and run.pipeline(traced=True)
            if ok:
                untraced, traced = ([run.times[stage][k] for stage in STAGES] for k in (0, 1))
                metrics = layers.aggregate(run.spans, sum(traced) - sum(untraced))
        else:
            ok = measure(run, args.seconds) is not None
            if ok:
                metrics = end_to_end(setup_s, run)
        if ok:
            digests = run.digests()
            work = computed_work(wl, workdir)
            with open(os.path.join(run.out, "report.json")) as fh:
                report = json.load(fh)["test"]
    finally:
        remove_workdir(base)

    print(f"workload {wl.name}  seed {args.seed}  {'traced' if args.trace else 'untraced'}")
    for key, value in environment().items():
        print(f"  info {key:36s} {value}")
    for stage in STAGES:
        samples = " ".join(f"{t:.3f}" for t in run.times[stage])
        print(f"  info {stage + ' seconds':36s} {samples}")
    for stage, message in run.failures:
        print(f"  FAIL {stage}: {message}")
    if ok:
        for key, value in digests.items():
            print(f"  info sha256 {key:29s} {value}")
        for key, value in work.items():
            print(f"  computed {key:32s} {value:.6g}")
        _print_metrics("per-layer metrics (traced pass)" if args.trace
                       else "end-to-end metrics (mean over each stage's runs)", metrics)
        _print_metrics("quality (report.json, not bounded)",
                       {name: (report[key], unit) for name, key, unit in QUALITY})
    _print_metrics("failures", {"failed_stages": (run.failed, f"of {run.attempted} stage runs")})
    print(json.dumps({
        "correct": ok,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
