"""Each output file's sha256 and each stage's own peak memory, for one benchmark workload.

    python3 tools/output_digests.py --workload mesh3d_io --seed 1 2 3

Run from anywhere in a repository checkout. For each seed, in the order
given, a child writes the workload's inputs with perfbench/workloads.py
(imported, never edited) into a temporary directory. The five stages
`degrade -> pretrain -> calibrate -> finetune -> evaluate` run there, each
as a child `python3 -m mfcp.cli <stage> --config config.txt` as the
benchmark runs them, and after each a child runs the workload's own check.

Standard output: per seed, a `# seed <seed>  OPENBLAS_NUM_THREADS=<n>` line
(the value the children ran under, `unset` when it is not set; the stages
pin the BLAS to one thread, so the bytes do not depend on it, see README),
then one `<sha256>  <path>` line per file under out/, sorted by path, but
for the parse cache out/cache/, whose zip entries are stamped with the time
they were written. Two checkouts that print the same lines for the same
seeds wrote the same bytes.

Standard error: per seed, this launcher's own peak `ru_maxrss`, then each
stage's `ru_maxrss` in MB (2**20 bytes, as perfbench/run.py reports it) and
`ru_minflt`. On Linux a child's `ru_maxrss` starts at the high-water mark of
the process that started it. This launcher imports workloads.py (NumPy) and
hashes, at 32-35 MB, below every stage; in-process checks would lift it to
about 47 MB on `a7_cli`, above two of its stages. The benchmark harness's
mark (about 53 MB after it wrote `mesh3d_io`'s 18 MB `hf.csv`) hides
`a7_cli`'s stages in its `peak_rss_mb`.

The exit code is 0 when every stage of every seed passed, 1 at the first
stage that failed (its seed and log go to standard error) and 2 for an
unknown workload.
"""

import argparse
import hashlib
import os
import resource
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PERFBENCH = os.path.join(ROOT, "perfbench")
STAGES = ("degrade", "pretrain", "calibrate", "finetune", "evaluate")

# both run in perfbench/, which `-c` puts first on sys.path; CHECK exits 1
# with the check's failure messages
GENERATE = ("import sys; from workloads import WORKLOADS; "
            "WORKLOADS[sys.argv[1]].generate(int(sys.argv[2]), sys.argv[3])")
CHECK = ("import sys; from workloads import CHECKS, WORKLOADS; "
         "sys.exit('; '.join(CHECKS[sys.argv[2]](WORKLOADS[sys.argv[1]], sys.argv[3])) or None)")


def tree_digests(out):
    """{path relative to `out`: sha256} for every file under `out` but cache/."""
    digests = {}
    for base, dirs, names in os.walk(out):
        if base == out:
            dirs[:] = [d for d in dirs if d != "cache"]
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, out)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(digests.items()))


def run_child(args, cwd, env):
    """Run one child in `cwd`, its output to a temporary log;
    (exit code, the log on failure, ru_maxrss in MB, ru_minflt)."""
    with tempfile.TemporaryFile("w+") as log:
        child = subprocess.Popen(args, cwd=cwd, env=env, stdout=log, stderr=log)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = code = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        log.seek(0)
        return code, log.read() if code else "", usage.ru_maxrss / 1024.0, usage.ru_minflt


def run_pipeline(workload, seed, workdir):
    """Write the inputs, run and check each stage; (failure, None) or (None, peak lines)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code, log, _, _ = run_child([sys.executable, "-c", GENERATE, workload, str(seed), workdir],
                                PERFBENCH, env)
    if code != 0:
        return f"writing the inputs exited {code}:\n{log}", None
    peaks = []
    for stage in STAGES:
        code, log, rss_mb, minflt = run_child(
            [sys.executable, "-m", "mfcp.cli", stage, "--config", "config.txt"], workdir, env)
        if code != 0:
            return f"{stage} exited {code}:\n{log}", None
        peaks.append(f"  {stage:10s} peak_rss_mb {rss_mb:7.2f}  minflt {minflt:6d}")
        code, log, _, _ = run_child([sys.executable, "-c", CHECK, workload, stage,
                                     os.path.join(workdir, "out")], PERFBENCH, env)
        if code != 0:
            return f"{stage} failed its check: {log.strip()}", None
    return None, peaks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, PERFBENCH)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    for seed in args.seed:
        with tempfile.TemporaryDirectory(prefix="mfcp-digests-") as workdir:
            failure, peaks = run_pipeline(args.workload, seed, workdir)
            if failure is not None:
                print(f"error: seed {seed}: {failure}", file=sys.stderr)
                return 1
            launcher_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            print(f"# seed {seed}  launcher peak_rss_mb {launcher_mb:.2f}", *peaks,
                  sep="\n", file=sys.stderr)
            threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
            print(f"# seed {seed}  OPENBLAS_NUM_THREADS={threads}")
            for path, digest in tree_digests(os.path.join(workdir, "out")).items():
                print(f"{digest}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
