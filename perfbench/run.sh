#!/usr/bin/env bash
# Builds iqbserver and the perfbench program from the checkout this is
# run in, then runs perfbench with the given arguments. Run it from the
# root of the checkout:
#
#   bash perfbench/run.sh --workload live_mixed --seed 1 --seconds 10 --trace 0
#
# Every file the build and the runs write goes under .bench_build/.
set -euo pipefail

build="$PWD/.bench_build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local
export GOFLAGS=

mkdir -p "$build/bin"
go build -o "$build/bin/iqbserver" ./cmd/iqbserver >&2
go build -C perfbench -o "$build/bin/perfbench" . >&2
exec "$build/bin/perfbench" -server "$build/bin/iqbserver" -work "$build/work" "$@"
