#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there; every argument passes through. The Go build
# cache is kept inside the checkout too, so nothing outside it is written.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd bench && go build -o "$build/udbench-bench" .)
exec "$build/udbench-bench" "$@"
