#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given flags,
# e.g. bash perfbench/run.sh --workload predict-hot --seed 1 --seconds 20 --trace 0
# Run from the repository root. Every build artifact and Go cache stays
# under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home"
commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
(
	cd "$root/perfbench"
	HOME="$build/home" XDG_CONFIG_HOME="$build/home" \
		GOCACHE="$build/gocache" GOPATH="$build/gopath" \
		GOTOOLCHAIN=local GOFLAGS=-mod=readonly \
		go build -buildvcs=false -o "$build/perfbench" .
)
exec "$build/perfbench" -commit "$commit" "$@"
