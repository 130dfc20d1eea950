#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash tsbench/run.sh --workload daemon-kv --seed 1 --seconds 20 --trace 0
#   bash tsbench/run.sh --summary --runs 10 --workload all
#
# Run it from the repository root. Every build product (binary, Go build
# cache, span files) goes under $CARGO_TARGET_DIR (default .bench_build),
# so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$out/tsbench" .) >&2

exec "$out/tsbench" --out "$out" "$@"
