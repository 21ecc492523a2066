#!/usr/bin/env bash
# Builds the `mrw` binary and the `perfbench` binary from source, then runs
# `perfbench`. Run from the repository root:
#
#   bash perfbench/run.sh --workload cover-batched --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --self-test
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build). The last
# line of stdout is the JSON result; everything else goes to stderr.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ ! -f Cargo.toml || ! -d crates/cli ]]; then
    echo "perfbench: run from a checkout of the repository (crates/cli is missing)" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p mrw-cli --bin mrw >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --mrw "$target/release/mrw" "$@"
