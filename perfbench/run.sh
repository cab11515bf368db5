#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through:
#
#   bash perfbench/run.sh --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1] [--threads <n>]
#
# Run from the repository root. The build goes to $CARGO_TARGET_DIR
# (default `.bench_build`). Outside a full checkout the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
