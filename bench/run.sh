#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the checkout.
# Everything the build and the run leave behind stays under .bench_build/,
# the Go build cache included, so a run writes nothing outside its checkout.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="${GOCACHE:-$out/gocache}"
export GOTMPDIR="$out/gotmp"
export GOFLAGS="${GOFLAGS:-} -buildvcs=false"
go build -C "$here" -o "$out/ssbenchmark" .
exec "$out/ssbenchmark" -dir "$out" -src "$here" "$@"
