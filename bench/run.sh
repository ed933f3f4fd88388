#!/usr/bin/env bash
# Builds dsbench from source and runs it with the given arguments, from
# the root of a dsprof checkout:
#
#   bash bench/run.sh --workload mcf-profile --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -seed 20030717 -o .bench_build/set.json
#
# The binary, the Go build cache and every scratch file stay under
# .bench_build in the checkout. A failed build exits non-zero without
# printing a result.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/work"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd bench && go build -o "$build/dsbench" ./cmd/dsbench)
if [ "${1:-}" = compare ]; then
  exec "$build/dsbench" "$@"
fi
exec "$build/dsbench" --workdir "$build/work" "$@"
