#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it
# from the root of a checkout:
#
#   bash perfbench/run.sh --workload ycsbe-scan --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary, WAL directories, span files and the
# results log all stay under .perfbench/ in the checkout.
set -euo pipefail
root=$PWD
out=$root/.perfbench
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
