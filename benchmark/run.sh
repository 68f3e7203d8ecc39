#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the caller's
# arguments. Run from the root of the checkout:
#
#   bash benchmark/run.sh --workload tcp_read_zipf --seed 1 --seconds 20 --trace 0
#
# Everything the go command writes (build cache, module cache, its own
# telemetry) is pointed into .bench_build, so a run reads and writes
# nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go build -C benchmark -buildvcs=false -o "$out/gengar-benchmark" .
exec "$out/gengar-benchmark" "$@"
