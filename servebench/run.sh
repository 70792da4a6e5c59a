#!/usr/bin/env bash
# run.sh — build `cardpi` and the serve benchmark from this checkout, then run
# the benchmark with the given arguments:
#
#   bash servebench/run.sh --workload miss|hot|churn --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything the build and the run leave
# behind (Go build cache, binaries, server logs, span dumps) goes under
# .bench_build/ in the current directory.
set -euo pipefail

ROOT="$(pwd)"
OUT="$ROOT/.bench_build"
mkdir -p "$OUT/gocache" "$OUT/tmp" "$OUT/config" "$OUT/gopath"
# Keep every file the go command writes (build cache, temporary files,
# telemetry counters) inside the checkout, and never reach the network.
export GOCACHE="$OUT/gocache" GOTMPDIR="$OUT/tmp" XDG_CONFIG_HOME="$OUT/config" GOPATH="$OUT/gopath"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off

go build -o "$OUT/cardpi" ./cmd/cardpi
(cd servebench && go build -o "$OUT/servebench" .)
exec "$OUT/servebench" -cardpi "$OUT/cardpi" -work "$OUT/servebench-run" "$@"
