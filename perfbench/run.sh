#!/usr/bin/env bash
# Builds the benchmark and the caqe-serve binary from the source tree in the
# current directory (the repository root) and runs the benchmark with the
# given arguments. Build products and the Go build cache stay under
# .bench_build/ so nothing outside the checkout is written.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$root/.bench_build/gocache"
export GOMODCACHE="$root/.bench_build/gomodcache"
export GOPATH="$root/.bench_build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/caqe-serve" ./cmd/caqe-serve >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --serve-bin "$out/caqe-serve" --root "$root" "$@"
