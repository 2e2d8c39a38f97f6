#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload stream-grid64-gm --seed 1 --seconds 50 --trace 0
#
# Everything the build writes (binary, Go build cache, Go config) stays
# under .bench_build/ in the checkout, and the build never uses the
# network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
