#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it.
#
#   bash perfbench/run.sh --workload node_spec --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, span logs, reports) lands in .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

rev=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo none)

# Build output goes to stderr so the last line of stdout stays the result.
(cd "$root/perfbench" && go build -o "$out/perfbench" .) 1>&2

exec "$out/perfbench" --rev "$rev" --out "$out" "$@"
