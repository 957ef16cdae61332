#!/usr/bin/env bash
# Build the `ntv` server and the benchmark from source, then run the
# benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result object.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin ntv >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/ntv-perfbench" --ntv "$target/release/ntv" "$@"
