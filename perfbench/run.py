#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the library and gt_perfbench (Release)
under $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
runs rebuild incrementally. Build output goes to stderr. Standard output
ends with gt_perfbench's manifest line and its result line, the last line.
A traced run also writes its span ledger to
<build dir>/out/spans-<workload>-<seed>.json. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_server", "gtr_replay", "fleet_2w", "nat_table4")
# A run has 180 s to exit; leave room for an incremental build.
RUN_TIMEOUT_S = 150


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out_dir):
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, **quiet)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out_dir, "--target", "gt_perfbench", "-j", jobs],
                   check=True, **quiet)
    return os.path.join(out_dir, "gt_perfbench")


def git_provenance():
    """(sha, dirty) of the checkout, or "unknown" outside a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown", "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                             capture_output=True, text=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, check=True, capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return "unknown", "unknown"
    return sha, "1" if status.strip() else "0"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    work_dir = os.path.join(out_dir, "work")
    spans_dir = os.path.join(out_dir, "out")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(spans_dir, exist_ok=True)
    sha, dirty = git_provenance()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir, "--git-sha", sha, "--git-dirty", dirty]
    if args.trace == "1":
        cmd += ["--spans-out",
                os.path.join(spans_dir, f"spans-{args.workload}-{args.seed}.json")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if run.returncode != 0:
        print(f"perfbench: gt_perfbench exited with {run.returncode}", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: gt_perfbench printed no result line", file=sys.stderr)
        return 1
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
