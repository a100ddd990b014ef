#!/usr/bin/env python3
"""Entry point of the ratel_ledger benchmark.

Builds bench_ledger/ (a CMake package that compiles the repository's src/
tree), runs one workload of the ledger binary and prints, as the last line
of standard output, one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end metrics
declared in BENCHMARK.json; with --trace 1 they are the per-layer metrics,
taken from a traced run.

    python3 bench_ledger/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Run it from the repository root. The build tree, the binary's full JSON
report, the trace and the emulated SSD store all live under the build
directory: $CARGO_TARGET_DIR when set, else .bench_build, relative to the
root.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                        ".bench_build")


def build():
    """Configures and builds ratel_ledger; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no src/ tree next to bench_ledger/; "
                 "nothing to build")
    if shutil.which("cmake") is None:
        sys.exit("run.py: cmake not found")
    out = os.path.join(build_root(), "ledger")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", out, "--target", "ratel_ledger",
                        "-j", jobs], stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "ratel_ledger")


def run_ledger(binary, workload, seed, seconds, out, trace=None):
    """Runs one workload; returns the binary's JSON report or None."""
    store = os.path.join(build_root(), "store")
    args = [binary, "--workload=" + workload, "--seed=%d" % seed,
            "--seconds=%g" % seconds, "--out=" + out,
            "--store_root=" + os.path.relpath(store, ROOT)]
    if trace:
        args.append("--trace=" + trace)
        os.makedirs(os.path.dirname(trace), exist_ok=True)
    os.makedirs(os.path.dirname(out), exist_ok=True)
    os.makedirs(store, exist_ok=True)
    if os.path.exists(out):
        os.remove(out)
    proc = subprocess.run(args, cwd=ROOT, stdout=sys.stderr,
                          timeout=RUN_TIMEOUT_S)
    if not os.path.isfile(out):
        log("run.py: %s exited %d without a report" % (workload,
                                                       proc.returncode))
        return None
    with open(out) as f:
        return json.load(f)


def benchmark():
    """BENCHMARK.json: workloads, run_seconds and the declared metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def workloads():
    return [w["name"] for w in benchmark()["workloads"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    section = "per_layer" if args.trace else "end_to_end"
    name = "%s.seed%d.%s" % (args.workload, args.seed, section)
    out = os.path.join(build_root(), "reports", name + ".json")
    trace = (os.path.join(build_root(), "traces", name + ".trace.json")
             if args.trace else None)
    report = run_ledger(binary, args.workload, args.seed, args.seconds, out,
                        trace)
    if report is None:
        sys.exit(1)

    metrics = {}
    for declared in benchmark()[section]:
        metric, unit = declared["name"], declared["unit"]
        got = report[section].get(metric)
        if (got is None or got["unit"] != unit or
                not isinstance(got["value"], (int, float)) or
                not math.isfinite(got["value"])):
            sys.exit("run.py: report lacks a finite %s [%s]" % (metric, unit))
        metrics[metric] = {"value": got["value"], "unit": unit}
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    sys.exit(0 if report["correct"] else 1)


if __name__ == "__main__":
    main()
