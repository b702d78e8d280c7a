#!/usr/bin/env bash
# Builds the node (the stock cmd/liquid-server) and the perfbench load
# generator from source, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload sweep|remote-run|explore --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/perfbench (Go build cache included); the last line
# of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

(
	cd "$root/perfbench"
	# The toolchain's own state (telemetry, config) stays in the checkout too.
	export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
	go build -o "$out/" liquidarch/cmd/liquid-server .
) >&2
exec "$out/perfbench" --out "$out" "$@"
