#!/usr/bin/env bash
# Builds the benchmark and the codserve binary from the checkout it is run
# in, then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload dsl-explore --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and per-run files stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/codserve" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root: go.mod, cmd/codserve or perfbench/go.mod is missing" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench.bin" .)
go build -o "$out/codserve.bin" ./cmd/codserve
exec "$out/perfbench.bin" -root "$root" -codserve "$out/codserve.bin" "$@"
