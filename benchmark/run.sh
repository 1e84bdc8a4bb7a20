#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source
# into .bench_build/ (Go's caches, work directory and telemetry counters
# included, so nothing is written outside the checkout) and runs it from
# the checkout root with the caller's arguments.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && XDG_CONFIG_HOME="$build/config" go build -o "$build/symbench" .)
cd "$root"
exec "$build/symbench" "$@"
