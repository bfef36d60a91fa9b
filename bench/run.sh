#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; this is
# the command BENCHMARK.json names. Everything the build writes, the Go
# build cache included, goes under .bench_build (or $CARGO_TARGET_DIR).
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$out/quasaq-bench" ./bench
exec "$out/quasaq-bench" "$@"
