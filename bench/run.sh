#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs one workload; every argument is passed through (see README.md):
#
#   bash bench/run.sh --workload replay --seed 0 --seconds 15 --trace 0
#
# Run it from the repository root. The build output, the Go build cache and
# the go command's own state (GOPATH, its config and telemetry directory)
# stay under .bench_build/, so nothing outside the checkout is written.
# Without the repository's sources next to bench/ the build fails and the
# script exits non-zero without a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$out/hcmdbench" .
exec "$out/hcmdbench" "$@"
