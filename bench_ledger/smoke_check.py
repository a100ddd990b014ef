#!/usr/bin/env python3
"""Structure-only smoke test of ratel_ledger (ctest -L perf in its build).

    smoke_check.py <ratel_ledger binary> <workload> [--trace]

Runs the workload with --smoke and checks structure, not numbers: the run
passes its own checks, and every metric BENCHMARK.json declares is in
the report, finite and in its declared unit. With --trace it also checks
that the trace parses and that on every step the fetch, compute,
optimizer and boundary spans tile the step span, in that order.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
STAGES = ["fetch", "compute", "optimizer", "boundary"]


def fail(msg):
    sys.exit("smoke_check: " + msg)


def check_trace(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = {}
    for e in events:
        if e.get("ph") == "X":
            spans.setdefault(e["args"]["id"], []).append(e)
    steps = 0
    for sid, group in spans.items():
        step = [e for e in group if e["name"] == "step"]
        if not step:
            continue
        steps += 1
        step = step[0]
        children = sorted((e for e in group if e["name"] in STAGES),
                          key=lambda e: e["ts"])
        if [e["name"] for e in children] != STAGES:
            fail("step %s has children %s" % (sid,
                                               [e["name"] for e in children]))
        t = step["ts"]
        for e in children:
            if abs(e["ts"] - t) > 1e-3 or e["dur"] < 0:
                fail("step %s: %s does not start where the last stage ended"
                     % (sid, e["name"]))
            t = e["ts"] + e["dur"]
        if abs(t - (step["ts"] + step["dur"])) > 1e-3:
            fail("step %s: stages end at %.3f us, step at %.3f us"
                 % (sid, t, step["ts"] + step["dur"]))
    if steps == 0:
        fail("trace has no step spans")
    if not any(e.get("ph") == "C" for e in events):
        fail("trace has no counter samples")
    print("trace: %d steps tiled" % steps)


def main():
    if len(sys.argv) < 3:
        fail("usage: smoke_check.py <binary> <workload> [--trace]")
    binary, workload = sys.argv[1], sys.argv[2]
    traced = "--trace" in sys.argv[3:]
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)

    tmp = tempfile.mkdtemp(prefix="ledger_smoke_", dir=os.getcwd())
    try:
        out = os.path.join(tmp, "report.json")
        trace = os.path.join(tmp, "trace.json")
        args = [binary, "--workload=" + workload, "--seed=1", "--smoke",
                "--out=" + out, "--store_root=" + tmp]
        if traced:
            args.append("--trace=" + trace)
        proc = subprocess.run(args, timeout=110)
        if proc.returncode != 0:
            fail("ratel_ledger exited %d" % proc.returncode)
        with open(out) as f:
            report = json.load(f)
        if not report["correct"] or report["failed"] != 0:
            fail("report not correct")
        for section in ("end_to_end", "per_layer"):
            for m in spec[section]:
                got = report[section].get(m["name"])
                if got is None:
                    fail("missing %s metric %s" % (section, m["name"]))
                if got["unit"] != m["unit"]:
                    fail("%s has unit %s, declared %s"
                         % (m["name"], got["unit"], m["unit"]))
                if (not isinstance(got["value"], (int, float)) or
                        not math.isfinite(got["value"])):
                    fail("%s is not finite" % m["name"])
        if traced:
            check_trace(trace)
        print("%s: %d metrics present" % (
            workload, len(spec["end_to_end"]) + len(spec["per_layer"])))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
