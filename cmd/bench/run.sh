#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run it from the repository root:
#
#   bash cmd/bench/run.sh --workload tune --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and all other Go state stay under
# $CARGO_TARGET_DIR (default .bench_build) in the current directory, and
# the traced run writes its files to its trace/ subdirectory.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/home"
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd cmd/bench && go build -o "$out/bench" .)
exec "$out/bench" -tracedir "$out/trace" "$@"
