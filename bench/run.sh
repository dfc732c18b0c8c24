#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through (see bench/README.md). Run it from the repository root; the Go
# build cache and the binary stay under .bench_build there.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off

(cd bench && go build -buildvcs=false -o "$build/lubt-bench" .)

commit=unknown
if [ -e .git ]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
BENCH_COMMIT="$commit" exec "$build/lubt-bench" "$@"
