#!/usr/bin/env bash
# The repo benchmark: build `padfa` and the harness from source, then run
# the harness against the binary. See benchmark/README.md.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]] [--repeat K]
#   benchmark/run.sh gen --seed N --out DIR
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# Outside a checkout of the repo there is nothing to measure.
if [ ! -f Cargo.toml ] || [ ! -d crates/padfa ]; then
    echo "benchmark: $root is not a checkout of the repo (no Cargo.toml / crates/padfa)" >&2
    exit 2
fi

# Cargo resolves a relative CARGO_TARGET_DIR against its own working
# directory; pin it so both builds and the paths below agree.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    case "$CARGO_TARGET_DIR" in
        /*) ;;
        *) CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;;
    esac
    export CARGO_TARGET_DIR
    padfa_target="$CARGO_TARGET_DIR"
    bench_target="$CARGO_TARGET_DIR"
else
    padfa_target="$root/target"
    bench_target="$here/target"
fi

cargo build --release --offline --quiet -p padfa --bin padfa >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

if [ "${1:-}" = gen ]; then
    exec "$bench_target/release/padfa-benchmark" "$@"
fi
exec "$bench_target/release/padfa-benchmark" --padfa "$padfa_target/release/padfa" "$@"
