#!/usr/bin/env bash
# Measure analysis wall time and session cache statistics over the full
# corpus, writing BENCH_analysis.json (and results/analysis_stats.txt).
# Every program is timed in interleaved --jobs 1 / --jobs JOBS pairs;
# "speedup_jobs" is the median of the per-pair ratios, so runner-load
# drift cancels out of each pair. Scheduler spawn/inline counts and the
# estimate-vs-actual cost correlation land in each program's "sched"
# object. Each program is preceded by WARMUP untimed pairs.
#
# Usage: scripts/bench.sh [JOBS] [RUNS] [WARMUP]
set -euo pipefail
cd "$(dirname "$0")/.."
JOBS="${1:-4}"
RUNS="${2:-3}"
WARMUP="${3:-1}"
mkdir -p results
cargo build --release -p padfa-bench --bin analysis_stats
# Stage outputs under target/ (gitignored) while the benchmark runs, so
# the git_rev stamped into the JSON reflects the committed tree rather
# than the half-written outputs of this very script, then move them
# into place.
./target/release/analysis_stats --jobs "$JOBS" --runs "$RUNS" --warmup "$WARMUP" \
    --out target/BENCH_analysis.json.tmp \
    | tee target/analysis_stats.txt.tmp
mv target/analysis_stats.txt.tmp results/analysis_stats.txt
mv target/BENCH_analysis.json.tmp BENCH_analysis.json
echo "Wrote BENCH_analysis.json (and results/analysis_stats.txt)."
