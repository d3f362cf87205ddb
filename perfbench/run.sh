#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload uniq --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (compiler cache, temporaries, the binary,
# span files) stays under the build directory: $CARGO_TARGET_DIR when
# set, else .bench_build.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off

go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" --trace-dir "$build/traces" "$@"
