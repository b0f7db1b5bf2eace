#!/usr/bin/env bash
# Builds the dircc benchmark from source and runs it. Run from the root
# of a dircc checkout; every argument is passed to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload lu-p64 --seed 0 --seconds 20 --trace 0
#
# The build cache, temporary files and the binary stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
