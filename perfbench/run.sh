#!/usr/bin/env bash
# Builds diprouter and the benchmark from this checkout's source, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload wire-ip --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout,
# including the Go build cache.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/diprouter ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root; the dip sources are missing here" >&2
	exit 2
fi
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false CGO_ENABLED=0
go build -o "$out/bin/diprouter" ./cmd/diprouter
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -router "$out/bin/diprouter" -go "$(command -v go)" -out "$out/runs" "$@"
