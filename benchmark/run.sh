#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh [--seed N] [--quick] [--out FILE.json]   every workload
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh compare A.json B.json
#
# Works from any directory; paths given on the command line are relative to
# the caller's. Build output goes to $CARGO_TARGET_DIR, else benchmark/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
