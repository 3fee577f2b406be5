#!/bin/sh
# ci.sh — the checks a change must pass before merging:
#   1. every file is gofmt-clean,
#   2. everything compiles (including examples, which are plain
#      package-main programs the test suite shells out to),
#   3. go vet is clean,
#   4. the benchmark module (cmd/membench, a nested module the root
#      build and vet skip) builds, vets and passes its short tests
#      against the current internal packages,
#   5. the full test suite passes,
#   6. the suite also passes under the race detector (-short trims the
#      slowest golden sweeps; they already ran race-free in step 5's
#      process because the experiment sweeps are parallel by default),
#   7. the engine, both stream decoders, the math/rand stream and the
#      serving cache meet freshly generated input: the settled-writes
#      fuzz target runs for 10 s against the frozen engine and the
#      accounting identities, FuzzStream and FuzzCELog run for 10 s each
#      against their reference decoders (FuzzStream through both
#      Stream.Next and the batched Stream.Read),
#      FuzzStreamMatchesMathRand holds lfg.Stream to math/rand for 10 s,
#      and FuzzDiskStore (tampered disk entries) and FuzzLRU (the LRU
#      index both cache tiers share, against a slice-based reference)
#      run for 10 s each,
#   8. the fleet simulation's per-module fan-out runs race-clean at the
#      small scale the -short race pass skips,
#   9. the hot-path benchmarks still run (single iteration smoke; see
#      scripts/bench.sh for real measurements),
#  10. both read-disturb co-simulation ids run race-instrumented at
#      workers 1/4/8 with byte-identical output, plus one mitigated
#      run exercising the -disturb flag path,
#  11. every committed reference report under testdata/reports/ is
#      regenerated and diffed at zero tolerance (report regression),
#  12. the serving daemon survives a race-instrumented end-to-end
#      smoke: memcond starts, memload observes cache hits with
#      byte-identical bodies, and SIGTERM drains cleanly,
#  13. the persistent cache survives a daemon restart: a second
#      race-instrumented memcond over the same -cache-dir serves the
#      first daemon's corpus from disk, byte-identical (memload
#      -digests), without re-running an experiment.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -l =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build ./... =="
go build ./...

echo "== go vet ./... =="
go vet ./...

# cmd/membench is its own module (it replaces memcon with the repo
# root), so the root ./... patterns never reach it: an internal API
# change that breaks its probes would otherwise pass unnoticed. The
# build output is discarded: ./... there is a single main package, so a
# bare go build would leave a membench binary in the source tree.
echo "== benchmark module (cmd/membench) =="
(cd cmd/membench && go build -o /dev/null ./... && go vet ./... && go test -short ./...)

echo "== go test ./... =="
go test ./...

echo "== go test -race -short ./... =="
go test -race -short ./...

# Engine fuzz: FuzzEngineSettledWrites replays generated write sequences
# through the frozen and the live engine, and checks each report's
# accounting identities; each sequence also runs without neighbour
# re-tests, as a trace, through RunContext and RunSource.
echo "== engine fuzz =="
go test -run '^$' -fuzz '^FuzzEngineSettledWrites$' -fuzztime 10s ./internal/core

# Decoder fuzz: the compact trace and the CE log decode through one
# shared window reader (internal/varstream); each fuzz target holds its
# format to the byte-at-a-time reference decoder it replaced, through
# whole, 1-byte and 3-byte chunked sources, and round-trips what it
# accepts. FuzzStream also drains each input through Stream.Read, the
# replay's batched decoder, at batch sizes 1, 3, 256 and one taken from
# the input.
echo "== decoder fuzz =="
go test -run '^$' -fuzz '^FuzzStream$' -fuzztime 10s ./internal/trace
go test -run '^$' -fuzz '^FuzzCELog$' -fuzztime 10s ./internal/fleet

# Stream fuzz: content images and random patterns are defined by
# math/rand's seeded stream, which internal/lfg computes without a
# rand.Source. FuzzStreamMatchesMathRand draws any interleaving of
# Uint64, Int63 and Float64 at any seed from both and requires the same
# values, across refills of the 607-word block.
echo "== math/rand stream fuzz =="
go test -run '^$' -fuzz '^FuzzStreamMatchesMathRand$' -fuzztime 10s ./internal/lfg

# Serving-cache fuzz: FuzzDiskStore tampers with an on-disk entry and
# requires a miss (never corrupt bytes served) and a clean heal;
# FuzzLRU holds the LRU index both cache tiers share to a slice-based
# reference over fuzzed bounds and get/put/remove sequences.
echo "== serving cache fuzz =="
go test -run '^$' -fuzz '^FuzzDiskStore$' -fuzztime 10s ./internal/servecache
go test -run '^$' -fuzz '^FuzzLRU$' -fuzztime 10s ./internal/servecache

# Fleet race smoke: the per-module fleet fan-out and the fleet CLI paths
# under the race detector. The full sharding-invariance sweep skips
# itself in -short (step 5), so this runs the small-scale fleet tests
# explicitly — they drive parallel.Map at workers 4 and 8.
echo "== fleet race smoke =="
go test -race -run 'TestRunLogInvariants|TestAnalyzeMatchesOracle' ./internal/fleet
go test -race -run 'TestFleet' ./cmd/memconsim

# Smoke-run the hot-path, trace-synthesis, compact-codec, random-pattern
# fill and serving-cache benchmarks (one iteration each): catches
# compile or runtime breakage in the bench harness without spending CI
# time on stable measurements. Real numbers come from scripts/bench.sh,
# which rewrites BENCH_hotpath.json, BENCH_engine.json, BENCH_fleet.json
# and BENCH_serve.json (the three trace-synthesis benchmarks, the
# interval-streaming benchmark, the two compact-codec benchmarks and the
# fill benchmark have no BENCH file).
echo "== bench smoke =="
go test -run '^$' -bench 'BenchmarkReadBack|BenchmarkFailingCells|BenchmarkFailingCellsDense|BenchmarkDisturbScan|BenchmarkEngineRun|BenchmarkFleetRun|BenchmarkTraceGeneration|BenchmarkTraceIntervals|BenchmarkAppIntervals|BenchmarkTraceSort|BenchmarkTraceCompactEncode|BenchmarkTraceCompactDecode|BenchmarkRandomPatternFill' -benchtime=1x .
go test -run '^$' -bench BenchmarkServeCache -benchtime=1x ./internal/servecache

# The memconsim smoke runs and the report regression below invoke the
# CLI 41 times. Build it once, plain and race-instrumented, into the
# temp dir every later step shares, instead of relinking it per go run.
echo "== build memconsim (plain and race) =="
citmp=$(mktemp -d)
trap 'rm -rf "$citmp"' EXIT
go build -o "$citmp/memconsim" ./cmd/memconsim
go build -race -o "$citmp/memconsim-race" ./cmd/memconsim

# Mapping sweep smoke: one chip-level experiment per vendor address
# mapping, race-instrumented and fanned out over 4 workers. Catches a
# mapping whose permutation breaks under concurrency (the bit-parallel
# kernel reads neighbour rows of whatever layout the mapping chose) and
# keeps the -mapping flag wired end to end.
echo "== mapping sweep smoke (race) =="
for pair in "fig3 default" "fig4 gray" "vrt linear" "profile mirror"; do
    set -- $pair
    "$citmp/memconsim-race" -exp "$1" -mapping "$2" -scale 0.05 -parallel 4 > /dev/null
done

# Disturb sweep smoke: both read-disturb co-simulation ids,
# race-instrumented at workers 1/4/8, with one mitigated run. The
# workers-1 output is the reference; higher worker counts must be
# byte-identical (the same contract every other experiment honours).
echo "== disturb sweep smoke (race) =="
for id in disturb-exposure disturb-mitigation; do
    "$citmp/memconsim-race" -exp "$id" -scale 0.05 -simtime 200000 \
        -mixes 3 -parallel 1 > "$citmp/ref"
    for w in 4 8; do
        "$citmp/memconsim-race" -exp "$id" -scale 0.05 -simtime 200000 \
            -mixes 3 -parallel "$w" > "$citmp/out"
        cmp "$citmp/ref" "$citmp/out" || {
            echo "$id output differs between -parallel 1 and -parallel $w" >&2
            exit 1
        }
    done
done
"$citmp/memconsim-race" -exp disturb-mitigation -disturb para:0.01 \
    -scale 0.05 -simtime 200000 -mixes 3 -parallel 4 > /dev/null

# Report regression: re-run every experiment from its committed
# reference document and fail on any numeric drift. `make reports`
# regenerates the references after an intended change.
echo "== report regression =="
for f in testdata/reports/*.json; do
    "$citmp/memconsim" -diff "$f" > /dev/null
done

# Serving smoke: build the daemon race-instrumented, run a small load
# through it (12 requests over 2 experiments = at least 10 cache
# outcomes beyond the 2 misses; memload exits non-zero on any
# byte-identity violation or if hits stay under -min-hits), then
# SIGTERM and require a clean drain (exit 0).
echo "== memcond serve smoke (race) =="
servetmp="$citmp/serve"
mkdir "$servetmp"
go build -race -o "$servetmp/memcond" ./cmd/memcond
go build -o "$servetmp/memload" ./cmd/memload
# start_memcond starts the daemon with any extra flags given and waits
# for its address file; memcond_pid holds its process id.
start_memcond() {
    rm -f "$servetmp/addr"
    "$servetmp/memcond" -addr 127.0.0.1:0 -addr-file "$servetmp/addr" "$@" &
    memcond_pid=$!
    i=0
    while [ ! -s "$servetmp/addr" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "memcond never wrote its address file" >&2
            kill "$memcond_pid" 2>/dev/null || true
            exit 1
        fi
        sleep 0.1
    done
}
start_memcond
"$servetmp/memload" -addr "$(cat "$servetmp/addr")" \
    -exp fig4,minwi -n 12 -c 4 -min-hits 4
kill -TERM "$memcond_pid"
wait "$memcond_pid"

# Restart-persistence smoke: run a daemon with the disk tier, seed its
# corpus (recording per-key body digests), SIGTERM it, start a fresh
# daemon over the same directory and require that the load is answered
# from disk (-min-disk) with byte-identical bodies (the same -digests
# file verifies every key against the first run).
echo "== memcond restart persistence smoke (race) =="
start_memcond -cache-dir "$servetmp/cache"
"$servetmp/memload" -addr "$(cat "$servetmp/addr")" \
    -exp fig4,minwi -n 12 -c 4 -min-hits 4 -digests "$servetmp/digests"
kill -TERM "$memcond_pid"
wait "$memcond_pid"
start_memcond -cache-dir "$servetmp/cache"
"$servetmp/memload" -addr "$(cat "$servetmp/addr")" \
    -exp fig4,minwi -n 12 -c 4 -min-disk 1 -digests "$servetmp/digests"
kill -TERM "$memcond_pid"
wait "$memcond_pid"

echo "ci: all checks passed"
