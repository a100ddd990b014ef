#!/bin/bash
# Repeat-and-compare runner of the ratel_ledger benchmark.
#
#   bench_ledger/run.sh N OUTDIR
#       Runs the four workloads N times each, round-robin, one process per
#       run (untraced for end-to-end, traced for per-layer metrics), and
#       prints the median and IQR of every metric; OUTDIR/summary.json
#       keeps them.
#   bench_ledger/run.sh --compare A B
#       Fails if any end-to-end metric's medians in sets A and B differ by
#       more than its BENCHMARK.json bound, or if any loss digest differs.
#
# Run from the repository root; see repeat.py for details.
exec python3 "$(dirname "$0")/repeat.py" "$@"
