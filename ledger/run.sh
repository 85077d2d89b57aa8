#!/usr/bin/env bash
# Builds the ledger benchmark from the checkout it is run in and runs it.
# Run from the root of a checkout:
#
#   bash ledger/run.sh --workload mixed-small --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, the store directories
# (removed at exit) and the span files of traced runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -C ledger -o "$out/ledger" .
exec "$out/ledger" "$@"
