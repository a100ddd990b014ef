#!/usr/bin/env python3
"""Repeat-and-compare runner of the ratel_ledger benchmark (see run.sh).

    run.sh N OUTDIR          N repetitions of all four workloads
    run.sh --compare A B     gate set B against set A

A set runs every workload N times, round-robin (rep 1 of each workload,
then rep 2, ...), each run in its own process: one untraced run (seed =
rep) for the end-to-end metrics and one traced run (same seed) for the
per-layer metrics, in alternating order; both must give the same loss
digest. Runs last
BENCHMARK.json's run_seconds. It writes every report under
OUTDIR/reports, every trace under OUTDIR/traces, and OUTDIR/summary.json
with the median and quartiles of each metric, the loss digests and
trace_overhead_pct: how much lower a traced run's tokens_per_s is than
the untraced run of the same repetition, in percent, averaged so that
both run orders weigh equally.

--compare fails when, on any workload, an end-to-end metric's medians in
A and B differ by more than that metric's bound in BENCHMARK.json, or a
loss digest for the same workload and seed differs.
"""

import argparse
import json
import os
import statistics
import sys

import run


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(reports):
    """{metric: {median, q1, q3, iqr_pct, n, unit}} over `reports`."""
    values, units = {}, {}
    for report in reports:
        for name, metric in report.items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    out = {}
    for name, vals in values.items():
        q1, median, q3 = quartiles(vals)
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "iqr_pct": 100.0 * (q3 - q1) / median if median else 0.0,
                     "n": len(vals), "unit": units[name]}
    return out


def trace_overhead_pct(untraced, traced):
    """Mean paired tokens_per_s loss of the traced runs, in percent.

    Repetitions alternate which run goes first, and the run that follows
    another of the same workload can differ by several percent for
    reasons that have nothing to do with tracing. Averaging the two
    orders' means cancels that.
    """
    by_order = {}
    for rep, (u, t) in enumerate(zip(untraced, traced), start=1):
        tu = u["end_to_end"]["tokens_per_s"]["value"]
        tt = t["end_to_end"]["tokens_per_s"]["value"]
        by_order.setdefault(rep % 2, []).append(100.0 * (tu - tt) / tu)
    return statistics.mean(statistics.mean(v) for v in by_order.values())


def run_set(reps, outdir, seconds):
    binary = run.build()
    raw = {w: {"untraced": [], "traced": []} for w in run.workloads()}
    for rep in range(1, reps + 1):
        # Alternate which mode runs first, so a drift between back-to-back
        # runs does not land on trace_overhead_pct.
        modes = ("untraced", "traced") if rep % 2 else ("traced", "untraced")
        for workload in raw:
            for mode in modes:
                stem = "%s.seed%d.%s" % (workload, rep, mode)
                trace = (os.path.join(outdir, "traces", stem + ".json")
                         if mode == "traced" else None)
                report = run.run_ledger(
                    binary, workload, rep, seconds,
                    os.path.join(outdir, "reports", stem + ".json"), trace)
                if report is None or not report["correct"]:
                    sys.exit("run.sh: %s failed its checks" % stem)
                raw[workload][mode].append(report)
                run.log("%-17s seed %d %-8s tokens_per_s %.1f" % (
                    workload, rep, mode,
                    report["end_to_end"]["tokens_per_s"]["value"]))
            if (raw[workload]["traced"][-1]["loss_digest"] !=
                    raw[workload]["untraced"][-1]["loss_digest"]):
                sys.exit("run.sh: %s seed %d: traced and untraced loss "
                         "digests differ" % (workload, rep))

    summary = make_summary(raw, reps, seconds)
    with open(os.path.join(outdir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
        f.write("\n")
    print_summary(summary)


def make_summary(raw, reps, seconds):
    """summary.json from {workload: {"untraced": [...], "traced": [...]}}."""
    summary = {"reps": reps, "seconds": seconds, "workloads": {}}
    for workload, modes in raw.items():
        summary["workloads"][workload] = {
            "end_to_end": summarize(
                [r["end_to_end"] for r in modes["untraced"]]),
            "per_layer": summarize([r["per_layer"] for r in modes["traced"]]),
            "trace_overhead_pct": trace_overhead_pct(modes["untraced"],
                                                     modes["traced"]),
            "loss_digests": {str(r["seed"]): r["loss_digest"]
                             for r in modes["untraced"]},
            "config": modes["untraced"][0]["config"],
        }
    return summary


def print_summary(summary):
    for workload, w in summary["workloads"].items():
        print("== %s  (trace_overhead_pct %.2f)" % (
            workload, w["trace_overhead_pct"]))
        for section in ("end_to_end", "per_layer"):
            for name, m in w[section].items():
                print("  %-38s %14.4f %-10s IQR %6.2f%%  n=%d" % (
                    name, m["median"], m["unit"], m["iqr_pct"], m["n"]))


def compare(a_dir, b_dir):
    bounds = {m["name"]: m["bound"] for m in run.benchmark()["end_to_end"]}
    sets = []
    for d in (a_dir, b_dir):
        with open(os.path.join(d, "summary.json")) as f:
            sets.append(json.load(f)["workloads"])
    a, b = sets
    ok = True
    for workload in run.workloads():
        print("== %s" % workload)
        for name, bound in bounds.items():
            ma = a[workload]["end_to_end"][name]["median"]
            mb = b[workload]["end_to_end"][name]["median"]
            diff = abs(mb - ma) / ma
            verdict = "ok" if diff <= bound else "FAIL"
            ok = ok and diff <= bound
            print("  %-14s A %12.4f  B %12.4f  diff %6.2f%%  bound %5.1f%%  %s"
                  % (name, ma, mb, 100 * diff, 100 * bound, verdict))
        da, db = a[workload]["loss_digests"], b[workload]["loss_digests"]
        for seed in sorted(set(da) & set(db), key=int):
            same = da[seed] == db[seed]
            ok = ok and same
            print("  loss_digest seed %s  %s %s  %s" % (
                seed, da[seed], db[seed], "ok" if same else "FAIL"))
    print("PASS" if ok else "FAIL")
    return ok


def main():
    parser = argparse.ArgumentParser(
        usage="run.sh N OUTDIR | run.sh --compare A B")
    parser.add_argument("args", nargs=2)
    parser.add_argument("--compare", action="store_true")
    opts = parser.parse_args()
    if opts.compare:
        sys.exit(0 if compare(*opts.args) else 1)
    reps, outdir = int(opts.args[0]), os.path.abspath(opts.args[1])
    if reps < 1:
        parser.error("N must be at least 1")
    os.makedirs(outdir, exist_ok=True)
    run_set(reps, outdir, run.benchmark()["run_seconds"])


if __name__ == "__main__":
    main()
