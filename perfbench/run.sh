#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# root of the repository:
#
#   bash perfbench/run.sh --workload infer-depth3 --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (compiled packages, the binary, Go's own
# state) stays under the build directory, CARGO_TARGET_DIR when set and
# .bench_build otherwise.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/perfbench"

export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOMODCACHE=$build/gopath/pkg/mod
export XDG_CONFIG_HOME=$build/config
export GOENV=off
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOTOOLCHAIN=local

bin=$build/perfbench/perfbench
(cd "$root/perfbench" && go build -o "$bin" .)
exec "$bin" "$@"
