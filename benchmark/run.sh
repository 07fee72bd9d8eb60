#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash benchmark/run.sh --workload map_batch --seed 1 --seconds 15 --trace 0
# Run from the repository root. Build outputs and the Go build cache
# stay under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/benchmark" && go build -o "$out/darwinbench" .)
exec "$out/darwinbench" -workdir "$out/work" -tracedir "$out/traces" "$@"
