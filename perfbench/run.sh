#!/usr/bin/env bash
# Builds schedd and the benchmark from this checkout's sources, then runs
# the benchmark with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload oa-bulk --seed 1 --seconds 40 --trace 0
#
# Everything building and running leaves behind (binaries, the Go build
# cache, data dirs, spans files) goes under .bench_build/ at the root of
# the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/perfbench" build -o "$out/bin/" . repro/cmd/schedd >&2
exec "$out/bin/perfbench" --schedd "$out/bin/schedd" --work "$out" "$@"
