#!/usr/bin/env bash
# Builds the repository benchmark from the source in this checkout and
# runs it with the given arguments, from the checkout root:
#
#   bash sdbperf/run.sh --workload fleet-drain --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and every scratch file the run writes
# stay under the build directory: $CARGO_TARGET_DIR when set (relative
# paths resolve against the checkout root), else .bench_build.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

# XDG_CONFIG_HOME keeps the go command's configuration and telemetry
# files in the build directory too.
export GOCACHE=$build/go-cache GOPATH=$build/go-path GOMODCACHE=$build/go-path/mod
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/sdbperf" build -o "$build/sdbperf" .

cd "$root"
exec "$build/sdbperf" -build-dir "$build" "$@"
