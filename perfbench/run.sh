#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run from the checkout root:
#
#   bash perfbench/run.sh --workload krogan-cluster --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --selftest
#
# Build outputs, the Go build cache and every run's scratch files stay
# under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
# Everything the go command writes (build cache, temporary files, module
# and telemetry state under the user config directory) stays in $out.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# Build under a private name and rename, so a binary another run is
# executing is never overwritten in place.
go -C perfbench build -o "$out/perfbench.$$" .
mv -f "$out/perfbench.$$" "$out/perfbench"
exec "$out/perfbench" --root "$root" "$@"
