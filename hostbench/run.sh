#!/usr/bin/env bash
# Builds the host-cost benchmark (hostbench) and fiberd from this
# checkout's source, then runs hostbench with the given arguments. Run
# it from the repository root:
#
#   bash hostbench/run.sh --workload grid-threads --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build and module caches and run scratch files
# stay under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

# Build quietly: the last line of standard output must be the result.
(cd hostbench && go build -o "$out/hostbench" . && go build -o "$out/fiberd" fibersim/cmd/fiberd) >&2
exec "$out/hostbench" -fiberd "$out/fiberd" -out "$out" "$@"
