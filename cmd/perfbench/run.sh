#!/bin/sh
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   sh cmd/perfbench/run.sh --workload udp-serve --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artifact, the Go build
# cache included, stays under .bench_build in the current directory.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/cmd/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
