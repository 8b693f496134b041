#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Everything the build and the run write stays inside the checkout:
# the Go build cache, temporary files and the binary under .bench_build/
# at the checkout's root, trace files and scratch stores under
# cmd/bench/out/. Called from any directory; BENCHMARK.json's command is
# `bash cmd/bench/run.sh`.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

# XDG_CONFIG_HOME moves the toolchain's own config and telemetry counters
# in here too; the module has no dependencies to download.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=

cd "$here"
go build -o "$build/xqbench" .
exec "$build/xqbench" "$@"
