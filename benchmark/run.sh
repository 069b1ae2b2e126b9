#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every flag goes to the program
# (see README.md). The build cache, the go tool's own state and the binary all
# stay inside the checkout, under .bench_build/, so a run reads and writes
# nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
cd "$here"
go build -o "$build/dps-benchmark" .
exec "$build/dps-benchmark" "$@"
