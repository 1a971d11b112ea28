#!/usr/bin/env python3
"""Whole-session repair benchmark.

Builds gdr_perfbench (the gdr library from src/ plus the driver in this
directory) into .bench_build/ with CMake, runs one workload, checks the
result line against BENCHMARK.json and prints it as the last line of
standard output.

    python3 perfbench/run.py --workload gdr-hospital-4k --seed 1 \\
        --seconds 10 --trace 0

Run it from the root of a checkout. Spans of a traced run and the service
workload's spill files go to .bench_out/. Exit status 0 means every output
check passed; without the gdr sources next to this directory the build
fails and the script exits 1 without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "gdr_perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, check=False)
        if done.returncode != 0:
            log("build step failed: " + " ".join(step))
            return None
    return os.path.join(BUILD_DIR, "gdr_perfbench")


def complete_metrics(result, trace):
    """Puts the result's metrics in BENCHMARK.json's order and checks them.

    Every end-to-end metric must be present and positive. A per-layer
    metric of a layer the workload does not load is absent and reads 0.
    Returns the problems found.
    """
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    got = dict(result["metrics"])
    problems = []
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        name, unit = m["name"], m["unit"]
        value = got.pop(name, None)
        if value is None:
            if not trace:
                problems.append("missing " + name)
                continue
            value = {"value": 0.0, "unit": unit}
        if value["unit"] != unit:
            problems.append("%s: unit %s, expected %s" % (
                name, value["unit"], unit))
        if not trace and not value["value"] > 0:
            problems.append(name + " is not positive")
        metrics[name] = value
    problems.extend("not in BENCHMARK.json: " + name for name in got)
    result["metrics"] = metrics
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", os.path.relpath(OUT_DIR, ROOT)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log("no result line (exit status %d)" % done.returncode)
        return 1

    if result["correct"]:
        problems = complete_metrics(result, args.trace)
        for problem in problems:
            log("CHECK FAILED: " + problem)
        result["correct"] = not problems
    print(json.dumps(result), flush=True)
    if done.returncode != 0:
        return done.returncode
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
