#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload steady --seed 42 --seconds 20 --trace 0
#
# Run from the repository root. Every build product, cache and profile goes
# under .bench_build/ in the working directory, so nothing is written outside
# the checkout. Build output goes to stderr; the result is the last line of
# stdout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	PPROF_TMPDIR="$out/tmp" GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS="-mod=mod -buildvcs=false"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
