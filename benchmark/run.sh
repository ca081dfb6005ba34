#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build the benchmark
# from source into .bench_build/ at the root of the checkout, then run it
# with the driver's arguments. Everything go writes — build cache, module
# cache, the binary, the span file — stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" -trace-out "$build/spans.txt" "$@"
