#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, for example:
#
#   bash benchmark/run.sh --workload serve-heavy --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, the compiler's temporary files and the
# go command's own config and telemetry counters all stay in .bench_build,
# so building writes nothing outside the checkout. The module has no
# dependencies outside the repository, so the build never downloads.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
(cd benchmark && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
