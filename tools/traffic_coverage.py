"""Which lines of src/mfcp does the real traffic never run?

    python3 tools/traffic_coverage.py

Run from the repository root. Under `sys.settrace`, and `threading.settrace`
for the threads it starts (calibrate's split pool), it runs the traffic the
project serves, in one process:

1. both benchmark workloads of perfbench/workloads.py (`a7_cli`,
   `mesh3d_io`) at seed 1: their inputs are written into a temporary
   directory and the five stages run through `mfcp.cli.main` there;
2. the four scripts under demos/, each with its temporary files under the
   same directory.

It then prints every line of src/mfcp that compiles to code and never ran,
as `path:line: source`, and a count per file. A line listed here is reached
only by tests, by input checks and error handlers, or not at all. It takes
about 20-35 s on a 2-CPU host, so it is not part of the test suite; CI
runs it and prints the listing and the counts without gating on them.
"""

import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "mfcp")
STAGES = ("degrade", "pretrain", "calibrate", "finetune", "evaluate")
WORKLOADS = ("a7_cli", "mesh3d_io")
SEED = 1


def code_lines(path):
    """Line numbers at which the code compiled from `path` starts a line."""
    with open(path) as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def run_traffic(workdir):
    """Run the workloads and demos; their stdout is discarded."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from workloads import WORKLOADS as DEFINED

    import mfcp.cli

    here = os.getcwd()
    with contextlib.redirect_stdout(io.StringIO()):
        for name in WORKLOADS:
            root = os.path.join(workdir, name)
            DEFINED[name].generate(SEED, root)
            os.chdir(root)
            try:
                for stage in STAGES:
                    code = mfcp.cli.main([stage, "--config", "config.txt"])
                    if code != 0:
                        raise SystemExit(f"{name}: {stage} exited {code}")
            finally:
                os.chdir(here)
        tempfile.tempdir = workdir
        try:
            demos = os.path.join(ROOT, "demos")
            for script in sorted(os.listdir(demos)):
                if script.endswith(".py"):
                    runpy.run_path(os.path.join(demos, script), run_name="__main__")
        finally:
            tempfile.tempdir = None


def main():
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def scope(frame, event, arg):
        if frame.f_code.co_filename.startswith(PACKAGE + os.sep):
            ran.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    with tempfile.TemporaryDirectory(prefix="mfcp_traffic_") as workdir:
        threading.settrace(scope)
        sys.settrace(scope)
        try:
            run_traffic(workdir)
        finally:
            sys.settrace(None)
            threading.settrace(None)

    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        missed = sorted(code_lines(path) - {line for f, line in ran if f == path})
        with open(path) as fh:
            source = fh.read().splitlines()
        rel = os.path.relpath(path, ROOT)
        for line in missed:
            print(f"{rel}:{line}: {source[line - 1].strip()}")
        print(f"{rel}: {len(missed)} line(s) never ran")
        total += len(missed)
    print(f"total: {total} line(s) never ran")


if __name__ == "__main__":
    main()
