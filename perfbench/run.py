#!/usr/bin/env python3
"""The repository benchmark: one command per (workload, seed) run.

    python3 perfbench/run.py --workload fig3_grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds the simulator libraries from src/
and the perfbench binary (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR
(default .bench_build) on first use, then runs the binary, which prints its
report and, as the last line of stdout, one JSON result object. Build output
goes to stderr. Exits non-zero without a result when the sources are missing
or the build or the run fails.

Workloads, metrics and the layer map: perfbench/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig3_grid", "churn_resume")
RUN_TIMEOUT_S = 175


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() or "none"


def build():
    """Configures and builds the binary; returns its path or exits 3."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: simulator sources (src/) not found next "
                         "to perfbench/; run from a full checkout\n")
        sys.exit(3)
    bdir = os.path.join(build_dir(), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir] + gen +
                     ["-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(cmd))
            sys.exit(3)
    return os.path.join(bdir, "perfbench")


def run_binary(binary, args, timeout=RUN_TIMEOUT_S):
    """Runs the binary with `args`; returns (exit code, stdout text)."""
    cmd = [binary] + list(args) + [
        "--work-dir", os.path.join(build_dir(), "work"),
        "--git-sha", git_sha()]
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             timeout=timeout, text=True)
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (
            e.stdout or "")
        return 124, out
    return res.returncode, res.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    binary = build()
    code, out = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)])
    if code != 0:
        # Keep the report for diagnosis, but never a result line.
        sys.stderr.write(out)
        sys.stderr.write("perfbench: benchmark binary exited with %d\n" % code)
        return code if code > 0 else 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
