#!/bin/sh
# Full verification gate: static analysis first (it fails in seconds,
# before the expensive sweeps), then vet, build, and the complete test
# suite under the race detector. The determinism tests in experiments/
# run three full experiment sweeps, so give the suite a generous timeout.
set -eux

cd "$(dirname "$0")/.."

# Static invariants (internal/lint): the stderr summary line reports
# analyzer count and files scanned; nonzero exit means findings. The lint
# pass builds a module-wide call graph, so gate its wall time too — if it
# creeps past 30 seconds it has stopped being the cheap first check this
# script depends on (see also BenchmarkGopimlint in internal/lint).
lint_start=$(date +%s)
go run ./cmd/gopimlint ./...
lint_elapsed=$(( $(date +%s) - lint_start ))
if [ "$lint_elapsed" -ge 30 ]; then
	echo "check.sh: gopimlint took ${lint_elapsed}s (budget: 30s); profile the analyzers before merging" >&2
	exit 1
fi

go vet ./...
go build ./...
go test -race -timeout 45m ./...

# Replay-equivalence gate: record+replay must match direct execution
# bit-for-bit for every kernel family on every hardware config.
go test -race -count=1 -run 'TestReplayEquivalence|TestCache' ./internal/trace

# Batched-replay equivalence gate: one multi-config stream walk must leave
# every config in the per-access path's state (cache layer) and price it
# exactly as the reference interpreter does (trace layer).
go test -race -count=1 -run 'TestReplayStreamBatch|TestReplayBatch|TestHierarchySet' ./internal/cache ./internal/trace

# Line-stream fuzz smoke: a batched walk of decoded access sequences must
# leave every member in the per-access path's state and agree with the
# recency-list oracle (plain `go test` runs only the seed corpus). A short
# minimize time keeps the 20 s on new inputs rather than on shrinking the
# ones that widened coverage.
go test -run '^$' -fuzz FuzzLineStream -fuzztime 20s -fuzzminimizetime 1s ./internal/cache

# Trace-store decoder fuzz smoke: payloads behind a consistent header must
# never panic, never decode to more elements (event or program words
# included) than they have bytes, and re-encode to an entry that decodes
# to the same key, events and 64 B form.
go test -run '^$' -fuzz FuzzDecodeTrace -fuzztime 20s -fuzzminimizetime 1s ./internal/trace

# Job-spec fuzz smoke: POST /jobs bodies through the handler's decoding
# and normalize must never panic, and an accepted spec must normalize
# idempotently to the same cell keys.
go test -run '^$' -fuzz FuzzJobSpec -fuzztime 20s -fuzzminimizetime 1s ./internal/serve

# Batched-replay perf gate: pricing the K=8 sweep family in one walk must
# be at least 2x faster than 8 single replays (no -race: it times).
GOPIM_PERF_GATE=1 go test -count=1 -run TestBatchReplaySpeedup -v ./internal/trace

# Sub-pel interpolation perf gate: the interior fast path of a 16x16
# prediction must be at least 2x the byte-wise clamped reference loop.
GOPIM_PERF_GATE=1 go test -count=1 -run TestPredictLumaSpeedup -v ./internal/vp9

# Explorer equivalence gate: `explore -mode paper` must reproduce the
# paper pipeline (Evaluator.Evaluate) exactly from batch-replayed traces.
go test -race -count=1 -run TestExplorePaperConfigsMatchEvaluate ./experiments

# End-to-end trace-cache gate: the full default-scale sweep must render
# byte-identical output with the kernel trace cache on and off.
# -tracestore=off pins both runs to the pure in-memory paths.
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
go build -o "$tmpdir/pimsim" ./cmd/pimsim
"$tmpdir/pimsim" -tracestore=off -tracecache=off run all > "$tmpdir/off.txt"
"$tmpdir/pimsim" -tracestore=off -tracecache=on run all > "$tmpdir/on.txt"
cmp "$tmpdir/off.txt" "$tmpdir/on.txt"

# Explore smoke: a seeded random sweep renders in all three formats, and
# its output is byte-identical across worker counts.
"$tmpdir/pimsim" -tracestore=off explore -mode random -n 40 -seed 7 > "$tmpdir/explore.txt"
"$tmpdir/pimsim" -tracestore=off -workers 4 explore -mode random -n 40 -seed 7 > "$tmpdir/explore-w4.txt"
cmp "$tmpdir/explore.txt" "$tmpdir/explore-w4.txt"
"$tmpdir/pimsim" -tracestore=off explore -mode random -n 40 -seed 7 -format csv > /dev/null
"$tmpdir/pimsim" -tracestore=off explore -mode random -n 40 -seed 7 -format json > /dev/null

# Persistent trace-store gate: pack a store, then require byte-identical
# output from a cold process reading it — through the stored 64 B forms,
# and through the path that decodes the stored events, the explorer's
# 128 B designs — a clean `trace verify`, and — after corrupting every
# entry — a verify that fails plus a run that falls back to re-recording
# with output still byte-identical.
store="$tmpdir/store"
"$tmpdir/pimsim" -tracestore="$store" trace pack
"$tmpdir/pimsim" -tracestore="$store" trace verify
"$tmpdir/pimsim" -tracestore="$store" run all > "$tmpdir/store.txt"
cmp "$tmpdir/off.txt" "$tmpdir/store.txt"
"$tmpdir/pimsim" -tracestore="$store" explore -mode random -n 40 -seed 7 > "$tmpdir/store-explore.txt"
cmp "$tmpdir/explore.txt" "$tmpdir/store-explore.txt"
for f in "$store"/v*/*/*.trace; do truncate -s -3 "$f"; done
if "$tmpdir/pimsim" -tracestore="$store" trace verify > /dev/null; then
	echo "check.sh: trace verify missed injected corruption" >&2
	exit 1
fi
"$tmpdir/pimsim" -tracestore="$store" run all > "$tmpdir/corrupt.txt"
cmp "$tmpdir/off.txt" "$tmpdir/corrupt.txt"
# The corrupted run's write-through must have repaired the store.
"$tmpdir/pimsim" -tracestore="$store" trace verify

# Observability gate: -stats, -report, and a live -metrics-addr listener
# must leave stdout byte-identical to a plain run; the stats breakdown goes
# to stderr; and the warm-store report must validate (100% store hit rate,
# zero kernel executions — checkreport -warm).
"$tmpdir/pimsim" -tracestore="$store" run all -stats -report "$tmpdir/report.json" -metrics-addr 127.0.0.1:0 \
	> "$tmpdir/obs.txt" 2> "$tmpdir/obs.log"
cmp "$tmpdir/off.txt" "$tmpdir/obs.txt"
grep -q '== pimsim run report' "$tmpdir/obs.log"
go run ./scripts/checkreport -warm "$tmpdir/report.json"

# Same identity for the explorer: a swept -stats run renders byte-identical
# output and a valid (cold: no store attached) report.
"$tmpdir/pimsim" -tracestore=off explore -mode random -n 40 -seed 7 -stats -report "$tmpdir/explore-report.json" \
	> "$tmpdir/explore-obs.txt" 2> /dev/null
cmp "$tmpdir/explore.txt" "$tmpdir/explore-obs.txt"
go run ./scripts/checkreport "$tmpdir/explore-report.json"

# pimsimd gate (simulation-as-a-service): K concurrent identical sweep
# submissions over HTTP against the packed store must return bytes
# identical to `pimsim run all`, execute each kernel at most once
# (obs-report-verified: kernel_executions == unique kernels — zero on this
# warm store), coalesce every duplicate cell onto one computation, answer
# /healthz mid-flight, and drain in-flight jobs on graceful shutdown with
# no goroutine left behind.
go run ./scripts/servesmoke -ref "$tmpdir/off.txt" -store "$store"
