#!/bin/sh
# Runs the Fig-series benchmarks once each (-benchtime=1x -count=3), turns
# the output into a machine-readable JSON report via codbench -parse-bench,
# and validates it with codbench -check-bench. When a baseline report is
# present, the fresh report is also diffed against it (-compare-bench):
# ns/op and allocs/op are aggregated by min across the -count runs and a
# >25% regression on a shared benchmark fails the script, and every
# deterministic quality metric (CODL-5th, CODL-rho, precision, ...; all
# units but the timing-derived ones) must equal the baseline exactly.
# Benchmarks only in one report are printed as notes. Otherwise this stays a
# well-formedness gate — it fails loudly when the benchmarks stop
# producing parseable output.
#
#   scripts/bench_check.sh [out.json] [baseline.json]
#   # defaults: BENCH_pr12.json vs baseline BENCH_pr10.json (skipped if absent)
#
# Run via `make bench-check`; needs only the go toolchain.
set -eu

out="${1:-BENCH_pr12.json}"
baseline="${2:-BENCH_pr10.json}"
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

fail() {
    echo "bench-check: FAIL: $*" >&2
    if [ -f "$workdir/bench.out" ]; then
        echo "--- bench output (tail) ---" >&2
        tail -n 40 "$workdir/bench.out" >&2
    fi
    exit 1
}

echo "bench-check: building codbench"
go build -o "$workdir/codbench" ./cmd/codbench || fail "codbench does not build"

# -cpu 1 pins GOMAXPROCS so benchmark names carry no "-N" suffix and
# match the committed reports whatever the host's core count.
echo "bench-check: running Fig + engine benchmarks (-benchtime=1x -count=3 -cpu 1)"
go test -run '^$' -bench 'BenchmarkFig|BenchmarkCODLQuery|BenchmarkDiscoverBatch' \
    -benchtime=1x -count=3 -cpu 1 -benchmem . \
    >"$workdir/bench.out" 2>&1 || fail "go test -bench exited nonzero"

grep -q '^Benchmark' "$workdir/bench.out" || fail "no benchmark lines in output"

echo "bench-check: writing $out"
"$workdir/codbench" -parse-bench -bench-out "$out" <"$workdir/bench.out" \
    || fail "parse-bench rejected the output"

if [ -f "$baseline" ] && [ "$baseline" != "$out" ]; then
    echo "bench-check: comparing against baseline $baseline"
    "$workdir/codbench" -check-bench "$out" -compare-bench "$baseline" \
        || fail "check/compare vs $baseline rejected $out"
else
    "$workdir/codbench" -check-bench "$out" || fail "check-bench rejected $out"
    [ "$baseline" = "$out" ] || echo "bench-check: no baseline $baseline; skipping comparison"
fi

runs=$(grep -c '"name"' "$out")
echo "bench-check: PASS ($runs benchmark runs in $out)"
