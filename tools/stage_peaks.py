"""Each CLI stage's own peak memory and minor page faults on one workload.

    python3 tools/stage_peaks.py --workload mesh3d_io --seed 1

Run from anywhere in a repository checkout. A child process writes the
workload's inputs with perfbench/workloads.py (imported, never edited) into
a temporary directory; the five stages `degrade -> pretrain -> calibrate ->
finetune -> evaluate` then run there, each as a child `python3 -m mfcp.cli
<stage> --config config.txt` of this process, which imports no NumPy and
touches little memory itself.

That matters because on Linux a child's `ru_maxrss` starts at the high-water
mark of the process that started it (the benchmark harness's is about 53 MB
after it wrote `mesh3d_io`'s 18 MB `hf.csv`), so a stage below it cannot be
seen there. Here the floor is this launcher's own peak, printed first.

For each stage it prints `ru_maxrss` in MB (1 MB = 2**20 bytes, as
perfbench/run.py reports it) and `ru_minflt`, then the whole result as one
JSON line. It checks no outputs (perfbench/run.py and
tools/output_digests.py do). The exit code is 0 when every stage exited 0,
1 at the first one that did not (its log goes to standard error) and 2 when
the inputs cannot be written, as for an unknown workload.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PERFBENCH = os.path.join(ROOT, "perfbench")
STAGES = ("degrade", "pretrain", "calibrate", "finetune", "evaluate")

GENERATE = """
import sys
sys.path[:0] = sys.argv[1:3]
from workloads import WORKLOADS
name, seed, workdir = sys.argv[3], int(sys.argv[4]), sys.argv[5]
if name not in WORKLOADS:
    sys.exit(f"error: unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
WORKLOADS[name].generate(seed, workdir)
"""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_stage(stage, workdir, env, log):
    """Run one stage, its output to `log`; (exit code, ru_maxrss in MB, ru_minflt)."""
    child = subprocess.Popen([sys.executable, "-m", "mfcp.cli", stage, "--config", "config.txt"],
                             cwd=workdir, env=env, stdout=log, stderr=log)
    _, status, usage = os.wait4(child.pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0, usage.ru_minflt


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    env = _child_env()
    stages = {}
    with tempfile.TemporaryDirectory(prefix="mfcp-peaks-") as workdir:
        if subprocess.run([sys.executable, "-c", GENERATE, SRC, PERFBENCH, args.workload,
                           str(args.seed), workdir], env=env).returncode != 0:
            return 2
        launcher_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"workload {args.workload}  seed {args.seed}  launcher peak {launcher_mb:.2f} MB")
        print(f"  {'stage':10s} {'peak_rss_mb':>12s} {'minflt':>9s}")
        for stage in STAGES:
            with tempfile.TemporaryFile("w+") as log:
                code, rss_mb, minflt = run_stage(stage, workdir, env, log)
                if code != 0:
                    log.seek(0)
                    print(f"error: {stage} exited {code}:\n{log.read()}", file=sys.stderr)
                    return 1
            stages[stage] = {"peak_rss_mb": round(rss_mb, 2), "minflt": minflt}
            print(f"  {stage:10s} {rss_mb:12.2f} {minflt:9d}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "launcher_peak_rss_mb": round(launcher_mb, 2), "stages": stages}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
