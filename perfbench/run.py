#!/usr/bin/env python3
"""Builds and runs dbim's end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload batch|trajectory|service \
        --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (the dbim library from
src/ plus the benchmark program) in Release under .bench_build/; later calls
only rebuild what changed. Build output goes to stderr. The program's
standard output is passed through unchanged: every metric by name and unit,
then one JSON result object as the last line. The exit status is the
program's (non-zero when an output check failed), or 1 if the build fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
OUT_DIR = os.path.join(BUILD_ROOT, "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "dbim_perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)


def source_stamp():
    """The git commit when the checkout is a repository, plus a digest of
    the sources the benchmark builds (a checkout need not be a repo)."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=10,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        top = os.path.join(ROOT, base)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "%s+src-%s" % (commit, digest.hexdigest()[:12])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["batch", "trajectory", "service"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "measures", "session.h")):
        log("perfbench: dbim sources not found under %s" %
            os.path.join(ROOT, "src"))
        return 1
    try:
        build()
    except (OSError, subprocess.SubprocessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1

    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", OUT_DIR, "--commit", source_stamp()]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
