#!/usr/bin/env bash
# Builds cmd/promod, cmd/promotrace and the promodbench harness from the
# checkout's sources, then runs the harness with the given arguments:
#
#   bash _promodbench/run.sh --workload zipf-miss --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it builds, caches and
# writes stays under .bench_build/ in that root.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/promod" ]]; then
    echo "promodbench: run from the repository root (no go.mod or cmd/promod here)" >&2
    exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOPROXY=off GOSUMDB=off

go build -o "$build/bin/promod" ./cmd/promod
go build -o "$build/bin/promotrace" ./cmd/promotrace
(cd "$root/_promodbench" && go build -o "$build/bin/promodbench" .)

exec "$build/bin/promodbench" -bin "$build/bin" -work "$build/run" "$@"
