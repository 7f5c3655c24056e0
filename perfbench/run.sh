#!/usr/bin/env bash
# Builds the benchmark harness and the knorserve server from this
# checkout's sources, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload knori-mem --seed 1 --seconds 20 --trace 0
#
# Build caches, binaries and run files all live under .bench_build/ in
# the checkout. Build output goes to stderr so the last line of stdout
# stays the harness's JSON result.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry
# counters inside the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root" && go build -o "$out/knorserve" ./cmd/knorserve) >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" -root "$root" -knorserve "$out/knorserve" "$@"
