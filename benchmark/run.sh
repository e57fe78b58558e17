#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark program from
# source into .bench_build/ at the root of the checkout, then run it there
# with the driver's arguments. Every file Go writes (build cache included)
# stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/xorpbench" .)
cd "$root"
exec "$build/xorpbench" "$@"
