#!/usr/bin/env python3
"""Builds the engine and the benchmark from source, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload whatif_query --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

The build goes to .bench_build/perfbench (Release, engine sources from src/).
The last line of stdout is the JSON result; everything before it is the
human-readable report. A detailed record of the run (provenance, every
metric, the span table) is written to .bench_build/results/. Exits non-zero
without a result when the build, set-up or a percentile's sample count
fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("whatif_query", "edit_feed", "outofcore_scan")
# A run must finish within 180 s; the measured process gets what is left
# after the (normally no-op) incremental build.
RUN_BUDGET_S = 170.0
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def source_id():
    """The git commit (marked +modified when src/ or perfbench/ differ from
    it) when the tree is a git checkout, else a digest of the engine and
    benchmark sources (what was built)."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and os.path.samefile(top.stdout.strip(), ROOT):
            head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                    "--", "src", "perfbench"],
                                   capture_output=True, text=True, timeout=10)
            if head.returncode == 0 and dirty.returncode == 0:
                return ("git:" + head.stdout.strip() +
                        ("+modified" if dirty.stdout.strip() else ""))
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("engine sources not found at %s/src" % ROOT)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            return False
    step = ["cmake", "--build", BUILD_DIR, "-j", jobs,
            "--target", "perfbench", "perfbench_selftest"]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return False
    return True


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict) and set(result) == RESULT_KEYS and
            isinstance(result["metrics"], dict) and result["attempted"] >= 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own unit tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if not build():
        return 2
    start = time.monotonic()
    if args.self_test:
        return subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")],
                              timeout=RUN_BUDGET_S).returncode

    work_dir = os.path.join(BUILD_ROOT, "tmp")
    results_dir = os.path.join(BUILD_ROOT, "results")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)
    results = os.path.join(results_dir, "%s-seed%d-trace%d.json" %
                           (args.workload, args.seed, args.trace))
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--source-id", source_id(),
           "--results", results]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, RUN_BUDGET_S -
                                          (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        log("benchmark exceeded its time budget")
        return 3
    finally:
        # The benchmark removes its own scratch files; this covers a run
        # that was killed before it could.
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not valid_result(lines[-1]):
        sys.stderr.write(proc.stdout)
        log("benchmark failed (exit %d)" % proc.returncode)
        return proc.returncode or 4
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
