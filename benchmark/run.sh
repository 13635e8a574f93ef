#!/usr/bin/env bash
# Build the benchmark (release, offline, locked) and hand it the arguments.
#
#   benchmark/run.sh                      all workloads + traced pass -> benchmark/out/results.json
#   benchmark/run.sh --workload scan_deep --seed 7 --repeats 3 --no-trace
#   benchmark/run.sh --quick              smoke run of everything, about 20 s
#   benchmark/run.sh measure --workload W --seed N --seconds S --trace 0|1
#                                         one workload; last line is one JSON object (BENCHMARK.json's command)
#   benchmark/run.sh compare a.json b.json
#
# Works from any directory; build output goes to $CARGO_TARGET_DIR or benchmark/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
CARGO_TARGET_DIR="$target" cargo build --release --offline --locked --quiet \
    --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/tse-benchmark" "$@"
