#!/usr/bin/env bash
# Builds the satcheck benchmark from this checkout and runs it. Run it from
# the repository root:
#
#   bash bench/run.sh --workload trace-kernel --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh --seed 1 --json a.json        # all six workloads
#
# Everything the build and the run write stays under .bench_build/ in the
# repository root: the Go build cache, the benchmark binary, zcheckd and each
# run's temporary inputs.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/zcheckd || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the root of a satcheck checkout" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off

(cd bench && go build -o "$out/satbench" .)
exec "$out/satbench" "$@"
