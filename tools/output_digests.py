"""The sha256 of every output file of one benchmark workload's pipeline.

    python3 tools/output_digests.py --workload mesh3d_io --seed 1 2 3

Run from anywhere in a repository checkout. For each seed, in the order
given, it writes the workload's inputs with perfbench/workloads.py
(imported, never edited) into a temporary directory, runs the five stages
`degrade -> pretrain -> calibrate -> finetune -> evaluate` there, each as a
child `python3 -m mfcp.cli <stage> --config config.txt` as the benchmark
runs them, and checks each stage's outputs with the workload's own check.
It then prints the seed's block: a `# seed <seed>  OPENBLAS_NUM_THREADS=<n>`
line, with the value the children ran under (`unset` when it is not set;
the stages pin the BLAS to one thread, so the bytes do not depend on it,
see README), then one `<sha256>  <path>` line per
file under out/, sorted by path. The parse cache out/cache/ is left out:
its entries are zip archives stamped with the time they were written.

Two checkouts that print the same lines for the same seeds wrote the same
bytes. The exit code is 0 when every stage of every seed passed, 1 at the
first stage that failed (its seed and log go to standard error) and 2 for
an unknown workload.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STAGES = ("degrade", "pretrain", "calibrate", "finetune", "evaluate")


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def tree_digests(out):
    """{path relative to `out`: sha256} for every file under `out` but cache/."""
    digests = {}
    for base, dirs, names in os.walk(out):
        if base == out:
            dirs[:] = [d for d in dirs if d != "cache"]
        for name in names:
            path = os.path.join(base, name)
            digests[os.path.relpath(path, out)] = _sha256(path)
    return dict(sorted(digests.items()))


def run_pipeline(wl, seed, workdir):
    """Write the inputs and run the five stages; the first failure message, or None."""
    from workloads import CHECKS

    wl.generate(seed, workdir)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = os.path.join(workdir, "out")
    for stage in STAGES:
        child = subprocess.run([sys.executable, "-m", "mfcp.cli", stage, "--config", "config.txt"],
                               cwd=workdir, env=env, capture_output=True, text=True)
        if child.returncode != 0:
            return f"{stage} exited {child.returncode}:\n{child.stdout}{child.stderr}"
        errors = CHECKS[stage](wl, out)
        if errors:
            return f"{stage} failed its check: {'; '.join(errors)}"
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    sys.path[:0] = [SRC, os.path.join(ROOT, "perfbench")]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    for seed in args.seed:
        with tempfile.TemporaryDirectory(prefix="mfcp-digests-") as workdir:
            failure = run_pipeline(WORKLOADS[args.workload], seed, workdir)
            if failure is not None:
                print(f"error: seed {seed}: {failure}", file=sys.stderr)
                return 1
            threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
            print(f"# seed {seed}  OPENBLAS_NUM_THREADS={threads}")
            for path, digest in tree_digests(os.path.join(workdir, "out")).items():
                print(f"{digest}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
