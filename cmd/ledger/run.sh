#!/usr/bin/env bash
# Entry point of BENCHMARK.json: builds the ledger from source inside the
# checkout and runs it with the arguments given. Everything the Go toolchain
# writes (build cache, temporary files, the binary) stays under .bench_build,
# so the benchmark reads and writes only inside its checkout. In a directory
# without the module's sources the build fails and this script exits non-zero
# without printing a result.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off

go build -o "$build/ledger" ./cmd/ledger
exec "$build/ledger" "$@"
