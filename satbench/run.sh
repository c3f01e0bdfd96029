#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#   bash satbench/run.sh --workload table1-cssg --seed 1 --seconds 30 --trace 0
# Build products, the Go build cache and span files stay under
# .bench_build/ in the checkout; no network is used (GOPROXY=off).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd satbench && go build -o "$out/satbench" .)
exec "$out/satbench" -root "$root" -out "$out" "$@"
