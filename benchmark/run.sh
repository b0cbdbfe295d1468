#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash benchmark/run.sh --workload chaos_grid --seed 1 --seconds 16 --trace 0
#
# Everything the build writes stays inside the checkout: the binary, Go's
# build cache and its temporary files all go under .bench_build/. The first
# call in a checkout compiles the standard library into that cache (about a
# minute on two cores); later calls find everything up to date.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/benchmark/go.mod" ]; then
	echo "benchmark/run.sh: run from the repository root (no benchmark/go.mod under $root)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOWORK=off
go build -C "$root/benchmark" -o "$build/jitckpt-benchmark" .
exec "$build/jitckpt-benchmark" "$@"
