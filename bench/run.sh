#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root. Everything the Go toolchain writes (build cache, binary)
# stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOFLAGS=-mod=mod
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$out/deepsecure-bench" .
cd "$root"
exec "$out/deepsecure-bench" "$@"
