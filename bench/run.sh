#!/usr/bin/env bash
# Entry point of BENCHMARK.json's command: build ./bench from source inside
# the checkout, then run it with the caller's arguments
# (--workload NAME --seed N --seconds S --trace 0|1).
#
# Everything the build leaves behind (binary, Go build cache, temp files)
# stays under .bench_build/ in the checkout. The first run compiles the
# standard library into that cache; later runs only re-check it.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
go build -o "$out/bench" ./bench
exec "$out/bench" -spans "$out" "$@"
