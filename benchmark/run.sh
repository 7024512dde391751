#!/usr/bin/env bash
# Build the benchmark and run it:
#   benchmark/run.sh --workload <name> [--seed <u64>] [--seconds <n>] [--trace [0|1]] [--out <file>]
#   benchmark/run.sh --compare <a.jsonl> <b.jsonl> [--same-model]
# Runs from the repo root. Build output goes to $CARGO_TARGET_DIR (default
# target/), trace files and scratch files to $CARGO_TARGET_DIR/benchmark/.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

# The repo's own worker binary, for jobs.fleet2_over_inproc_ratio. The
# metric is left out with a note when it does not build.
BENCH_WORKER_BIN=""
if cargo build --release --offline --locked --quiet -p hwgc-jobs --bin sweep_worker 2>/dev/null; then
    BENCH_WORKER_BIN="$CARGO_TARGET_DIR/release/sweep_worker"
fi
export BENCH_WORKER_BIN
BENCH_RUSTC="$(rustc --version)"
export BENCH_RUSTC

exec "$CARGO_TARGET_DIR/release/hwgc-benchmark" "$@"
