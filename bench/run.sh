#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload soc_default --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and temporary files stay under
# bench/.build/; results go to bench/out/.
set -euo pipefail

root=$(pwd)
build="$root/bench/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off

bin="$build/bench.$$"
(cd "$root/bench" && go build -o "$bin" .) >&2
mv -f "$bin" "$build/bench"
exec "$build/bench" -out "$root/bench/out" "$@"
