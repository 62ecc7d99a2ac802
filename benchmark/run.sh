#!/usr/bin/env bash
# The one command of the benchmark. Builds the harness (offline, release,
# into $CARGO_TARGET_DIR if set, else benchmark/target) and hands every
# argument to it. Run from anywhere; see README.md beside this file.
#
#   run.sh [--seed N] [--seconds S] [--traced] [--smoke] [--bless]
#   run.sh --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#   run.sh compare <a.json> <b.json>
#   run.sh spec
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# The build's own chatter goes to stderr: stdout carries results only.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

exec "$target/release/catalyzer-benchmark" "$@"
