#!/usr/bin/env python3
"""Run one workload of the dmsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the measuring program (perfbench/,
linked against the library in src/) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs it and prints its result: the last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics. Exits non-zero, without a result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("exa-40k", "synth-1k-ndjson", "serve-whatif")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_checked(cmd, timeout):
    """Run a build step with its output on stderr; True on success."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"{cmd[0]} failed: {err}")
        return False
    return proc.returncode == 0


def build(out):
    """Configure once, then bring the program up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("the dmsim sources (src/) are missing; nothing to build")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if not run_checked(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return None
    if not run_checked(["cmake", "--build", out, "--target", "dmsim_perfbench",
                        "-j", jobs], BUILD_TIMEOUT_S):
        return None
    exe = os.path.join(out, "dmsim_perfbench")
    return exe if os.path.isfile(exe) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    out = build_dir()
    exe = build(out)
    if exe is None:
        log("build failed")
        return 1

    workdir = os.path.join(out, f"work-{os.getpid()}")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir,
           "--identity-file", os.path.join(HERE, "identity.txt")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        log(f"{args.workload} exited with {proc.returncode}")
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("the program printed no result")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
