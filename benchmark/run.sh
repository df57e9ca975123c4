#!/usr/bin/env bash
# pegbench: the repo's one benchmark. See benchmark/README.md.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--smoke] [--runs N] [--check-repeat]
#       the suite: prints every metric, writes benchmark/out/results.json and trace.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run, as BENCHMARK.json's driver calls it: last stdout line is the result object
#   benchmark/run.sh compare A.json B.json
#       two results.json side by side
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Every dependency is a path into ../crates, so the build never needs a registry.
run=(cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" --)
if [[ "${1:-}" == compare ]]; then
    exec "${run[@]}" "$@"
fi
exec "${run[@]}" --out-dir "$here/out" "$@"
