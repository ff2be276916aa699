#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, keeping the
# Go build cache, the binary and every temporary file (store data dirs
# included, via TMPDIR) under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" TMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C "$here" -o "$build/tlxbench" .
exec "$build/tlxbench" -out "$here/out" "$@"
