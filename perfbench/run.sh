#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; all arguments are passed to the binary, e.g.
#   bash perfbench/run.sh --workload superset_mix --seed 1 --seconds 10 --trace 0
set -euo pipefail
target="${CARGO_TARGET_DIR:-perfbench/target}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$target/release/perfbench" "$@" --out "$target/perfbench-out"
