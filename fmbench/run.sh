#!/usr/bin/env bash
# Builds `fmperf` and the benchmark from source, then runs one workload:
#   bash fmbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); the last line of standard output is the result.
set -euo pipefail
if [ ! -f Cargo.toml ] || [ ! -d crates ] || [ ! -d models ]; then
    echo "fmbench: run from the root of an fmperf checkout" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --bin fmperf >&2
cargo build --release --quiet --manifest-path fmbench/Cargo.toml >&2
"$CARGO_TARGET_DIR/release/fmbench" "$@"
