#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# executes it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload range --seed 1 --seconds 10 --trace 0
#
# Build outputs (the binary and the Go build cache, module cache, temporary
# files and configuration directory) and the benchmark's working files go to
# $CARGO_TARGET_DIR, default .bench_build, so nothing is written outside the
# checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gopath/pkg/mod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out/perfbench-work" "$@"
