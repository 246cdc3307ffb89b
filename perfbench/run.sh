#!/usr/bin/env bash
# Builds the benchmark and the bmstreed daemon from source, then runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload route_mix --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and run files stay in .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOENV=off GOTELEMETRY=off
cd "$root/perfbench"
go build -o "$out/bin/perfbench" . >&2
go build -o "$out/bin/bmstreed" repro/cmd/bmstreed >&2
cd "$root"
exec "$out/bin/perfbench" --daemon "$out/bin/bmstreed" --out "$out" "$@"
