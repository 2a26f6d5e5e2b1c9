#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs it
# with the given arguments. Everything the build and the run write — Go build
# cache, the toolchain's telemetry counters, binary, scratch archives — stays
# inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/laces-bench" .)
export TMPDIR="$build/tmp"
exec "$build/laces-bench" "$@"
