#!/usr/bin/env python3
"""Entry point of the host-wall benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the perfbench binary from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, checks the result line against BENCHMARK.json and prints it as the
last line of stdout. Build output and diagnostics go to stderr. Exits
non-zero, without a result line, when the build, the run or the check fails.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
# A run must end within 180 s; the first one in a checkout also builds.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700
# Per-layer metrics of layers a workload never calls are reported as 0.
UNEXERCISED = {
    "fused_dense": ("serve.", "robust.", "tree."),
    "unfused_stream": ("serve.", "robust.", "tree."),
    "tree_clustered": ("serve.", "robust."),
    "serve_mixed": ("tree.",),
}


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def open_loop_rate(benchmark):
    """The serve_mixed arrival rate, stated once in BENCHMARK.json."""
    for workload in benchmark["workloads"]:
        if workload["name"] == "serve_mixed":
            match = re.search(r"open loop at (\d+(?:\.\d+)?) req/s",
                              workload["why"])
            if match:
                return match.group(1)
    fail("BENCHMARK.json states no serve_mixed open-loop rate")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "pipelines", "solver.h")):
        fail("the library sources are missing next to perfbench/")
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], capture_output=True,
                          check=False).returncode == 0:
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", "3"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build step timed out: " + " ".join(step))
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def check_metrics(result, benchmark, workload, trace):
    declared = benchmark["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if name not in units:
            fail("undeclared metric %s" % name)
        if metric["unit"] != units[name]:
            fail("metric %s has unit %s, declared %s"
                 % (name, metric["unit"], units[name]))
    for name, unit in units.items():
        if name in metrics:
            continue
        if trace and name.startswith(UNEXERCISED[workload]):
            metrics[name] = {"value": 0, "unit": unit}
        else:
            fail("metric %s missing" % name)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    benchmark = load_benchmark()
    if args.workload not in [w["name"] for w in benchmark["workloads"]]:
        fail("unknown workload " + args.workload)
    started = time.monotonic()
    binary = build()

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.workload == "serve_mixed":
        command += ["--rate", open_loop_rate(benchmark)]
    env = dict(os.environ, OMP_NUM_THREADS="1")
    budget = max(30.0, RUN_TIMEOUT_S - (time.monotonic() - started))
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, env=env, cwd=ROOT,
                              timeout=budget, check=False, text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %.0f s" % (args.workload, budget))
    if done.returncode != 0:
        fail("perfbench exited with %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed no result")
    result = json.loads(lines[-1])
    check_metrics(result, benchmark, args.workload, args.trace == 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
