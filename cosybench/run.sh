#!/usr/bin/env bash
# Builds the COSY benchmark from the checkout's source and runs it with the
# given arguments. Run from the repository root:
#
#	bash cosybench/run.sh --workload cold-local --seed 1 --seconds 20 --trace 0
#
# Every build artifact and Go cache lives under .bench_build at the root, so
# the benchmark reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/cosybench" && go build -o "$out/cosybench" .)
exec "$out/cosybench" "$@"
