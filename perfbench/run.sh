#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources into .bench_build and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fleet-scale --seed 1 --seconds 30 --trace 0
#
# Run it from the root of a checkout. Every file the build writes,
# including the Go build cache and any user-level tool state, stays
# under .bench_build. A failed build exits non-zero before anything is
# measured.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off CGO_ENABLED=0
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
