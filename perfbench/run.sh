#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout of this repository:
#
#   bash perfbench/run.sh --workload templates_bulk --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every file a run writes stay under
# .bench_build/ in the checkout. The last line of standard output is the
# JSON result; see perfbench/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
