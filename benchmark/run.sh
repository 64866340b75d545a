#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. Everything it writes (Go build cache, binary,
# WAL directories of the durable workload, trace files) goes under
# .bench_build at the root of the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd benchmark && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
