#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it there.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload prove --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and Go's own config/telemetry files
# go to .bench_build/ in the checkout (override with CARGO_TARGET_DIR),
# so nothing is written outside it; the FLM_* variables are cleared so
# the benchmark, not the caller's environment, decides every setting.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$out/perfbench" .

cd "$root"
exec env -u FLM_RUNCACHE -u FLM_CACHE_BUDGET -u FLM_CACHE_DIR -u FLM_WORKERS \
	-u FLM_TRACE -u FLM_OBS_LISTEN "$out/perfbench" "$@"
