#!/bin/sh
# Regenerate the committed perf snapshots (BENCH_*.json at the repo
# root). These are smoke-budget numbers from whatever machine ran them
# last — useful for spotting gross regressions in review diffs, not for
# paper-grade comparisons. Run from the repo root after a build:
#
#     cmake --build build -j --target fig08_commit_breakdown fig12_throughput
#     sh bench/snapshot.sh [build-dir]
set -eu

build="${1:-build}"
root="$(cd "$(dirname "$0")/.." && pwd)"

"$root/$build/bench/fig08_commit_breakdown" --smoke \
    --json="$root/BENCH_fig08_commit_breakdown.json"
# --clients=16 folds the multi-client scaling table (1..16 clients,
# NVWAL, FASH and FAST) into the snapshot so the perf gate watches the
# scaling numbers too, not just single-client throughput.
# The table also carries the span profiler's latch-p95(ns) column; it
# rides through the snapshot but is NOT gated by bench_compare (wait
# times are host-share sensitive — see the gate map in
# tools/bench_compare/bench_compare.cc), and reads 0 here because the
# snapshot runs without --metrics.
"$root/$build/bench/fig12_throughput" --smoke --clients=16 \
    --json="$root/BENCH_fig12_throughput.json"
# YCSB A-F across all five engines (2 clients). --n=6000 rather than
# the bare smoke count: per-point samples of ~150 ops are warmup-noise
# dominated and flap the 15% gate; 3000 ops/client holds it.
"$root/$build/bench/ycsb" --smoke --n=6000 \
    --json="$root/BENCH_ycsb.json"

echo "snapshot written:"
ls -l "$root"/BENCH_*.json
