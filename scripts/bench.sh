#!/usr/bin/env bash
# Measure analysis wall time and the session's query counters over the
# full corpus, writing BENCH_analysis.json (and results/analysis_stats.txt).
# Every program is analyzed RUNS times after WARMUP untimed runs, one
# fresh session per run on one thread; the wall reported is the median.
#
# Usage: scripts/bench.sh [RUNS] [WARMUP]
set -euo pipefail
cd "$(dirname "$0")/.."
RUNS="${1:-3}"
WARMUP="${2:-1}"
mkdir -p results
cargo build --release -p padfa-bench --bin analysis_stats
# Stage outputs under target/ (gitignored) while the benchmark runs, so
# an interrupted run leaves the committed outputs whole.
./target/release/analysis_stats --runs "$RUNS" --warmup "$WARMUP" \
    --out target/BENCH_analysis.json.tmp \
    | tee target/analysis_stats.txt.tmp
mv target/analysis_stats.txt.tmp results/analysis_stats.txt
mv target/BENCH_analysis.json.tmp BENCH_analysis.json
echo "Wrote BENCH_analysis.json (and results/analysis_stats.txt)."
