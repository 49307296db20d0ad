#!/usr/bin/env bash
# Builds the benchmark runner from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload shell-run --seed 1 --seconds 30 --trace 0
#
# Every build artifact, cache and temporary file stays under
# .bench_build/ in the working directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

go -C "$here" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
