#!/usr/bin/env bash
# Builds the `perfvar` CLI and the benchmark from source, then runs one
# benchmark workload:
#
#   bash crates/bench/src/bin/benchmark/run.sh --workload figures --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Both builds go to one target
# directory ($CARGO_TARGET_DIR, default ./target), so the benchmark finds
# `perfvar` next to its own executable. Build output goes to stderr; the
# last line of stdout is the benchmark's JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"
case "$CARGO_TARGET_DIR" in
  /*) ;;
  *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac

cargo build --release --offline --quiet -p perfvar-cli >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
