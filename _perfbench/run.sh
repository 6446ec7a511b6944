#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash _perfbench/run.sh --workload unary_small --seed 1 --seconds 40 --trace 0
#
# Run from the repository root. Everything the build writes (Go build
# cache, module cache, binary, temporary span dumps) stays under
# .bench_build/ in the current directory. The module replaces rpcscale
# with the parent directory, so outside a full checkout the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export GOTELEMETRY=off

(cd "$root/_perfbench" && go build -o "$out/perfbench" .) >&2
if [ ! -e "$root/.git" ] || ! PERFBENCH_COMMIT=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null); then
	PERFBENCH_COMMIT=src-$(find "$root" -path "$root/.bench_build" -prune -o \
		\( -name '*.go' -o -name go.mod \) -type f -print | LC_ALL=C sort |
		xargs cat | sha256sum | cut -c1-12)
fi
export PERFBENCH_COMMIT
exec "$out/perfbench" "$@"
