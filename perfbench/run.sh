#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload kv-paxos --seed 7 --seconds 15 --trace 0
#
# The Go build cache, temporary files, the binary and span files all
# stay under .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --spans "$out" "$@"
