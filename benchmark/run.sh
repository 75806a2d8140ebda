#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build (Go build
# cache included, so nothing is written outside the checkout) and runs it.
# Arguments are passed through: --workload --seed --seconds --trace.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
# Everything the go command writes (build cache, module cache, telemetry
# counters) is pointed into the build directory.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOENV=off GOWORK=off
(cd "$here" && go build -o "$build/onepipe-benchmark" .)
exec "$build/onepipe-benchmark" -out "$here/out" "$@"
