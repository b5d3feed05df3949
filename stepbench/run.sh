#!/usr/bin/env bash
# Builds the step benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash stepbench/run.sh --workload narrow-tcp --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files here too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
go -C stepbench build -o "$out/bin/stepbench" . >&2
exec "$out/bin/stepbench" "$@"
