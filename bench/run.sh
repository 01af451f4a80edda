#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it from the checkout's
# root. Everything the build and the run write — Go build cache, temporary
# files, the binary, queue directories, traces — stays under .bench_build/.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off
(cd "$bench" && go build -o "$build/sapbench" .)
cd "$root"
exec "$build/sapbench" "$@"
