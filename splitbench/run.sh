#!/usr/bin/env bash
# Builds splitbench from the checkout it sits in and runs it with the
# given arguments, e.g.
#   bash splitbench/run.sh --workload solo --seed 1 --seconds 10 --trace 0
# Every build and tool cache stays under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd splitbench && go build -o "$out/splitbench" .)
exec "$out/splitbench" "$@"
