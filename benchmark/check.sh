#!/bin/sh
# Repeatability self-check: the full set (every workload, timed and traced)
# twice on one build. Exits non-zero if a timed end-to-end metric differs by
# more than its bound in BENCHMARK.json or an exact metric differs at all.
# Extra arguments pass through, e.g. `benchmark/check.sh --seed 7`.
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload all --sets 2 "$@"
