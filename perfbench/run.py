#!/usr/bin/env python3
"""Build and run the serving benchmark from a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py [--seed <n>] [--seconds <s>] [--trace <0|1>]
        runs every workload in BENCHMARK.json, one after another;
        --seconds defaults to run_seconds in BENCHMARK.json
    python3 perfbench/run.py --self-test
        builds and runs the unit tests of the benchmark's helpers

The program is compiled from ../src into .bench_build/perfbench (Release)
on first use. Build output goes to stderr; the last line of stdout is the
result as one JSON object. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
RUN_TIMEOUT_S = 175


def build(target):
    """Configure (once) and build @target; True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(workload, seed, seconds, trace):
    """Run one workload; returns (exit code, result dict or None).

    The program prints every metric it measures; the result keeps the ones
    BENCHMARK.json names for this mode (end_to_end untraced, per_layer
    traced), in its order, and fails when one of them is missing.
    """
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace), "--work-dir", WORK_DIR]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1, None
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: %s printed no result" % workload, file=sys.stderr)
        return proc.returncode or 1, None
    wanted = [m["name"] for m in contract()["per_layer" if trace else
                                          "end_to_end"]]
    missing = [name for name in wanted if name not in result["metrics"]]
    if missing:
        print("perfbench: %s did not report %s" % (workload, ", ".join(missing)),
              file=sys.stderr)
        return 1, None
    result["metrics"] = {name: result["metrics"][name] for name in wanted}
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=contract()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        if not build("perfbench_tests"):
            print("perfbench: test build failed", file=sys.stderr)
            return 1
        return subprocess.run(
            [os.path.join(BUILD_DIR, "perfbench_tests")]).returncode

    if not build("perfbench"):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    if args.workload:
        code, result = run_one(args.workload, args.seed, args.seconds,
                               args.trace)
        if result is not None:
            print(json.dumps(result))
        return code

    # Every workload in turn, then one combined result line.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in [w["name"] for w in contract()["workloads"]]:
        code, result = run_one(name, args.seed, args.seconds, args.trace)
        if result is None:
            return code or 1
        status = status or code
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][name + "/" + metric] = value
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
