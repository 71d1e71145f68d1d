#!/usr/bin/env python3
"""End-to-end benchmark of SaPHyRa ranking and serving.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload social-subset --seed 1 \
        --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Builds the checked-out tree in Release (into .bench_build/perfbench),
generates the workload's inputs from the seed, runs the harness and prints
its result as the last line of stdout: one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(HERE, "work")
TRACES = os.path.join(HERE, "traces")
WORKLOADS = ("social-subset", "road-region", "social-mutating")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(targets):
    """Configures (once) and builds the given targets; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise RuntimeError("no source tree at %s to build" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                    "--target"] + targets, check=True, stdout=sys.stderr)


def binary(name):
    path = os.path.join(BUILD, name)
    if os.path.isfile(path):
        return path
    return os.path.join(BUILD, "saphyra", name)


def run(args):
    build(["perfbench_harness", "graph_convert"])
    harness = binary("perfbench_harness")
    work = os.path.join(WORK, "%s-%d" % (args.workload, args.seed))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        start = time.monotonic()
        subprocess.run([harness, "gen", "--workload", args.workload,
                        "--seed", str(args.seed), "--dir", work],
                       check=True, timeout=RUN_TIMEOUT_S)
        cmd = [harness, "run", "--workload", args.workload,
               "--seed", str(args.seed), "--dir", work,
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--convert", binary("graph_convert")]
        if args.trace:
            os.makedirs(TRACES, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                TRACES, "%s-seed%d.ndjson" % (args.workload, args.seed))]
        left = RUN_TIMEOUT_S - (time.monotonic() - start)
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                             text=True, timeout=left).stdout
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError("malformed harness result: %s" % lines[-1])
    print(json.dumps(result), flush=True)
    return 0


def self_test():
    build(["perfbench_check_test"])
    return subprocess.run([binary("perfbench_check_test")]).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="run the tests of the correctness checks")
    args = p.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            p.error("--workload is required")
        return run(args)
    except (RuntimeError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError) as e:
        log("perfbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
