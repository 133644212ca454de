#!/usr/bin/env python3
"""Build and run one workload of the mqsp end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which builds the library from this
checkout) under $CARGO_TARGET_DIR, default .bench_build; later calls only
check that the build is current. The benchmark program then runs the
workload at its pinned thread width, and its last stdout line is the JSON
result. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.join(ROOT, base) if not os.path.isabs(base) else base,
                        "perfbench")


def build(directory):
    """Configure once, then build; build output goes to stderr."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", directory, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", directory, "--target", "perfbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return None
    return os.path.join(directory, "perfbench")


def digest(path):
    with open(path, "rb") as binary:
        return hashlib.sha256(binary.read()).hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    directory = build_dir()
    binary = build(directory)
    if binary is None:
        return 1

    # Per-request counts of the first run of a seed, keyed by the binary, so
    # a later run of the same program must reproduce them exactly.
    counts_dir = os.path.join(directory, "counts", digest(binary))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--counts-dir", counts_dir]
    if args.trace == "1":
        command += ["--spans-out",
                    os.path.join(directory, "spans", f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
