#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#   bash bench/run.sh --workload fig5-pages --seed 1 --seconds 10 --trace 0
# Every build and run artifact stays under .bench_build/ at the root of
# the checkout: the Go build cache, the binary and the workloads' scratch
# directories.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
mkdir -p "$GOTMPDIR"
(cd "$root/bench" && go build -o "$out/aegis-bench" .)
cd "$root"
exec "$out/aegis-bench" -workdir "$out/work" "$@"
