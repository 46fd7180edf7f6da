#!/usr/bin/env bash
# Build (if needed) and run the wall-time benchmark. Run from the root of
# a checkout:
#
#   bash wallbench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# `--trace 0` runs the `wallbench` binary (end-to-end metrics), `--trace 1`
# the `wallbench-trace` binary (per-layer metrics). Cargo builds only the
# binary asked for, so a refactor that breaks the traced replay cannot
# break the untraced run. Build output goes to $CARGO_TARGET_DIR, by
# default `.bench_build` in the current directory.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
bin=wallbench
prev=""
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
        bin=wallbench-trace
    fi
    prev="$arg"
done
exec cargo run --quiet --offline --locked --release \
    --manifest-path "$here/Cargo.toml" --bin "$bin" -- "$@"
