#!/usr/bin/env bash
# Builds estocada-serve and the benchmark program from source, then runs it
# with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot_lookup --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh compare -base 'a/*.json' -head 'b/*.json'
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory, the Go build cache included.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/perfbench"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod CGO_ENABLED=0
# With telemetry on, the go command forks a detached process that can
# outlive it (and this script); turn telemetry off in the private config.
mkdir -p "$out/config/go/telemetry"
printf 'off\n' >"$out/config/go/telemetry/mode"

go build -o "$out/bin/estocada-serve" ./cmd/estocada-serve
(cd perfbench && go build -o "$out/bin/perfbench" .)

if [ "${1:-}" = compare ]; then
	exec "$out/bin/perfbench" "$@"
fi
exec "$out/bin/perfbench" -root "$root" -server "$out/bin/estocada-serve" -out "$out/perfbench" "$@"
