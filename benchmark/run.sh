#!/usr/bin/env bash
# Runs every workload of the benchmark of record, one process per workload.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace] [--quick] [--out DIR]
#
# Arguments are passed through to each run. Nothing is fetched (--offline).
# Set SHARED_TARGET=1 to build into the repository's ../target instead of
# benchmark/target (saves rebuilding the crates the workspace already built).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo_args=(--release --offline --quiet --manifest-path "$here/Cargo.toml")
if [[ -n "${SHARED_TARGET:-}" ]]; then
    cargo_args+=(--target-dir "$here/../target")
fi

cargo build "${cargo_args[@]}"
workloads="$(cargo run "${cargo_args[@]}" -- --list | awk -F'\t' '$1 == "workload" { print $2 }')"
for workload in $workloads; do
    cargo run "${cargo_args[@]}" -- --workload "$workload" "$@"
done
