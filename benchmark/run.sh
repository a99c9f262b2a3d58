#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through. Run it from the root of a checkout:
#
#   bash benchmark/run.sh --workload flat-8n --seed 1 --seconds 20 --trace 0
#
# Build outputs (the binary and the Go build cache) stay under
# .bench_build/ in the checkout; the toolchain is never downloaded.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$here" && go build -buildvcs=false -o "$build/hermes-bench" .)
exec "$build/hermes-bench" "$@"
