#!/bin/sh
# bench.sh — regenerate the committed benchmark measurement files:
# BENCH_hotpath.json (fault-model kernel, parallel ReadBack),
# BENCH_disturb.json (read-disturb victim sweep), BENCH_engine.json
# (engine hot loop) and BENCH_fleet.json (fleet simulation). Each
# section prints the raw `go test -bench` output and rewrites its JSON
# document.
#
# Runs BenchmarkFailingCells (sparse and dense populations) and
# BenchmarkReadBack (workers 1/4/8) on the default geometry and
# rewrites BENCH_hotpath.json. Two pinned comparison blocks:
# "baseline" holds the numbers measured at commit 41aed67 (map-based
# lazy fault model, sequential commit-as-you-go ReadBack), "pr3" the
# numbers after the flat-CSR kernel and frozen-parallel ReadBack but
# before the bit-parallel word kernel and the scan-scratch reuse.
# Re-measure either by checking out that commit and running these
# benchmarks there (BenchmarkFailingCellsDense exists only after pr3).
set -eu

cd "$(dirname "$0")/.."

out=$(go test -run '^$' -bench 'BenchmarkFailingCells|BenchmarkReadBack' \
	-benchmem -benchtime=2s .)
echo "$out"

echo "$out" | awk '
function emit(name, line,    f) {
	split(line, f, /[ \t]+/)
	# fields: name iters ns/op "ns/op" B/op "B/op" allocs/op "allocs/op"
	printf "    \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
		name, f[3], f[5], f[7]
}
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^go/ { }
/^BenchmarkFailingCells-|^BenchmarkFailingCells / { fc = $0 }
/^BenchmarkFailingCellsDense/   { fcd = $0 }
/^BenchmarkReadBack\/workers-1/ { rb1 = $0 }
/^BenchmarkReadBack\/workers-4/ { rb4 = $0 }
/^BenchmarkReadBack\/workers-8/ { rb8 = $0 }
END {
	print "{"
	print "  \"benchmarks\": \"go test -run ^$ -bench BenchmarkFailingCells|BenchmarkReadBack -benchmem -benchtime=2s .\","
	print "  \"geometry\": \"DefaultGeometry (1 rank, 8 chips, 8 banks, 4096x1024, 32 redundant cols)\","
	print "  \"baseline\": {"
	print "    \"commit\": \"41aed67\","
	print "    \"cpu\": \"Intel(R) Xeon(R) Processor @ 2.10GHz (1 core)\","
	print "    \"BenchmarkFailingCells\": {\"ns_per_op\": 106.5, \"bytes_per_op\": 0, \"allocs_per_op\": 0},"
	print "    \"BenchmarkReadBack/workers-1\": {\"ns_per_op\": 3475589, \"bytes_per_op\": 169072, \"allocs_per_op\": 1690}"
	print "  },"
	print "  \"pr3\": {"
	print "    \"cpu\": \"Intel(R) Xeon(R) Processor @ 2.10GHz\","
	print "    \"BenchmarkFailingCells\": {\"ns_per_op\": 31.20, \"bytes_per_op\": 0, \"allocs_per_op\": 0},"
	print "    \"BenchmarkReadBack/workers-1\": {\"ns_per_op\": 1527545, \"bytes_per_op\": 345969, \"allocs_per_op\": 2133},"
	print "    \"BenchmarkReadBack/workers-4\": {\"ns_per_op\": 1478864, \"bytes_per_op\": 346386, \"allocs_per_op\": 2139},"
	print "    \"BenchmarkReadBack/workers-8\": {\"ns_per_op\": 1595760, \"bytes_per_op\": 346770, \"allocs_per_op\": 2143}"
	print "  },"
	print "  \"after\": {"
	printf "    \"cpu\": \"%s\",\n", cpu
	emit("BenchmarkFailingCells", fc); printf ",\n"
	emit("BenchmarkFailingCellsDense", fcd); printf ",\n"
	emit("BenchmarkReadBack/workers-1", rb1); printf ",\n"
	emit("BenchmarkReadBack/workers-4", rb4); printf ",\n"
	emit("BenchmarkReadBack/workers-8", rb8); printf "\n"
	print "  }"
	print "}"
}' >BENCH_hotpath.json

echo "bench: BENCH_hotpath.json updated"

# --- Read-disturb scan (BENCH_disturb.json) ---
# First-measurement baseline for the read-disturb mechanism: a full
# victim sweep (one AppendFailures query per victim row at a hammer
# count inside the threshold population) on the default geometry with
# random content. There is no "before" commit — the mechanism is new —
# so the recorded numbers ARE the baseline future PRs compare against.
# The victim-rows/op and flipped-rows/op metrics pin the population
# shape: a drift there is a model change, not noise.

out=$(go test -run '^$' -bench 'BenchmarkDisturbScan' \
	-benchmem -benchtime=2s .)
echo "$out"

echo "$out" | awk '
function field(line, unit,    f, i, n) {
	n = split(line, f, /[ \t]+/)
	for (i = 2; i <= n; i++) {
		if (f[i] == unit) {
			return f[i - 1]
		}
	}
	return "null"
}
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^BenchmarkDisturbScan/ { ds = $0 }
END {
	print "{"
	print "  \"benchmarks\": \"go test -run ^$ -bench BenchmarkDisturbScan -benchmem -benchtime=2s .\","
	print "  \"geometry\": \"DefaultGeometry (1 rank, 8 chips, 8 banks, 4096x1024, 32 redundant cols), random content, hammer 22600/window\","
	print "  \"note\": \"new mechanism; these numbers are the baseline. victim-rows/op and flipped-rows/op pin the sampled population.\","
	print "  \"baseline\": {"
	printf "    \"cpu\": \"%s\",\n", cpu
	printf "    \"BenchmarkDisturbScan\": {\"ns_per_op\": %s, \"victim_rows_per_op\": %s, \"flipped_rows_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}\n", \
		field(ds, "ns/op"), field(ds, "victim-rows/op"), field(ds, "flipped-rows/op"), field(ds, "B/op"), field(ds, "allocs/op")
	print "  }"
	print "}"
}' >BENCH_disturb.json

echo "bench: BENCH_disturb.json updated"

# --- Engine hot loop (BENCH_engine.json) ---
# Before/after evidence for the flat-state engine rewrite: bitset+order
# write buffers, epoch-stamped page-state arrays, and streaming replay.
# The baseline block is pinned to commit ccc749a (map-based write
# buffers, map-backed System state; measured via
# BenchmarkEngineObserverDisabled / BenchmarkPRILObserve there — the
# same code path BenchmarkEngineRun/accounting and BenchmarkPRILObserve
# time now). Compare runs with benchstat:
#
#   go test -run '^$' -bench BenchmarkEngineRun -benchmem -count=10 . >new.txt
#   benchstat old.txt new.txt

out=$(go test -run '^$' -bench 'BenchmarkEngineRun|BenchmarkPRILObserve' \
	-benchmem -benchtime=2s .)
echo "$out"

echo "$out" | awk '
# field pulls the value preceding the given unit token, so custom
# metrics (events/op, MB/s) cannot shift the -benchmem columns.
function field(line, unit,    f, i, n) {
	n = split(line, f, /[ \t]+/)
	for (i = 2; i <= n; i++) {
		if (f[i] == unit) {
			return f[i - 1]
		}
	}
	return "null"
}
function emit(name, line) {
	printf "    \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
		name, field(line, "ns/op"), field(line, "B/op"), field(line, "allocs/op")
}
function emitmbs(name, line) {
	printf "    \"%s\": {\"ns_per_op\": %s, \"mb_per_s\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
		name, field(line, "ns/op"), field(line, "MB/s"), field(line, "B/op"), field(line, "allocs/op")
}
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^BenchmarkEngineRun\/accounting/ { acc = $0 }
/^BenchmarkEngineRun\/stream/     { stm = $0 }
/^BenchmarkEngineRun\/system/     { sys = $0 }
/^BenchmarkPRILObserve/           { prl = $0 }
END {
	print "{"
	print "  \"benchmarks\": \"go test -run ^$ -bench BenchmarkEngineRun|BenchmarkPRILObserve -benchmem -benchtime=2s .\","
	print "  \"workload\": \"Netflix seed 42 scale 0.05 (152934 events); system: 512-row module, 20000 events\","
	print "  \"baseline\": {"
	print "    \"commit\": \"ccc749a\","
	print "    \"cpu\": \"Intel(R) Xeon(R) Processor @ 2.10GHz (1 core)\","
	print "    \"note\": \"map-based write buffers and page state; accounting path measured as BenchmarkEngineObserverDisabled, PRIL as BenchmarkPRILObserve\","
	print "    \"BenchmarkEngineRun/accounting\": {\"ns_per_op\": 2786626, \"bytes_per_op\": 43440, \"allocs_per_op\": 703},"
	print "    \"BenchmarkPRILObserve\": {\"ns_per_op\": 1961683}"
	print "  },"
	print "  \"after\": {"
	printf "    \"cpu\": \"%s\",\n", cpu
	emit("BenchmarkEngineRun/accounting", acc); printf ",\n"
	emitmbs("BenchmarkEngineRun/stream", stm); printf ",\n"
	emit("BenchmarkEngineRun/system", sys); printf ",\n"
	emit("BenchmarkPRILObserve", prl); printf "\n"
	print "  }"
	print "}"
}' >BENCH_engine.json

echo "bench: BENCH_engine.json updated"

# --- Fleet simulation (BENCH_fleet.json) ---
# First-measurement baseline for the fleet-scale subsystem: end-to-end
# simulation of 64 heterogeneous modules over 12 weekly scrub epochs at
# workers 1/4/8, plus the analytics pass alone. There is no "before"
# commit — the subsystem is new — so the recorded numbers ARE the
# baseline future optimisation PRs compare against (benchstat works
# too: -count=10 runs of BenchmarkFleetRun).

out=$(go test -run '^$' -bench 'BenchmarkFleetRun|BenchmarkFleetAnalyze' \
	-benchmem -benchtime=2s .)
echo "$out"

echo "$out" | awk '
function field(line, unit,    f, i, n) {
	n = split(line, f, /[ \t]+/)
	for (i = 2; i <= n; i++) {
		if (f[i] == unit) {
			return f[i - 1]
		}
	}
	return "null"
}
function emit(name, line, metric, unit) {
	printf "    \"%s\": {\"ns_per_op\": %s, \"%s\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
		name, field(line, "ns/op"), metric, field(line, unit), field(line, "B/op"), field(line, "allocs/op")
}
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^BenchmarkFleetRun\/workers-1/ { w1 = $0 }
/^BenchmarkFleetRun\/workers-4/ { w4 = $0 }
/^BenchmarkFleetRun\/workers-8/ { w8 = $0 }
/^BenchmarkFleetAnalyze/        { an = $0 }
END {
	print "{"
	print "  \"benchmarks\": \"go test -run ^$ -bench BenchmarkFleetRun|BenchmarkFleetAnalyze -benchmem -benchtime=2s .\","
	print "  \"workload\": \"64 modules, seed 42, scale 0.05, 12 weekly epochs (DefaultClasses geometry mix)\","
	print "  \"note\": \"new subsystem; these numbers are the baseline. events/op must be identical at every worker count.\","
	print "  \"baseline\": {"
	printf "    \"cpu\": \"%s\",\n", cpu
	emit("BenchmarkFleetRun/workers-1", w1, "events_per_op", "events/op"); printf ",\n"
	emit("BenchmarkFleetRun/workers-4", w4, "events_per_op", "events/op"); printf ",\n"
	emit("BenchmarkFleetRun/workers-8", w8, "events_per_op", "events/op"); printf ",\n"
	emit("BenchmarkFleetAnalyze", an, "cells_per_op", "cells/op"); printf "\n"
	print "  }"
	print "}"
}' >BENCH_fleet.json

echo "bench: BENCH_fleet.json updated"

# --- Serving tier (BENCH_serve.json) ---
# Before/after evidence for the persistent cache and zero-copy serving
# path. The pinned baseline block was measured immediately before the
# disk tier was added, on the same machine: the in-memory cache
# (BenchmarkServeCacheBaseline/mem-hit-parallel) and the daemon it
# backed serving 2000 warm memory hits at concurrency 1000 via memload.
# The "after" block holds the cache microbenchmarks plus a daemon ladder:
# cold corpus, warm memory hits, ETag 304 revalidation, a warm restart
# (same -cache-dir: zero re-runs, disk tier), and a cold restart
# (cleared -cache-dir: every key re-runs).

serve_out=$(go test -run '^$' -bench 'BenchmarkServeCache' \
	-benchmem -benchtime=2s ./internal/servecache)
echo "$serve_out"

serve_cpu=$(echo "$serve_out" | awk '/^cpu:/ { sub(/^cpu: */, ""); print; exit }')
serve_bench=$(echo "$serve_out" | awk '
function field(line, unit,    f, i, n) {
	n = split(line, f, /[ \t]+/)
	for (i = 2; i <= n; i++) {
		if (f[i] == unit) {
			return f[i - 1]
		}
	}
	return "null"
}
function emit(name, line) {
	printf "    \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
		name, field(line, "ns/op"), field(line, "B/op"), field(line, "allocs/op")
}
$1 ~ /^BenchmarkServeCache\/mem-hit(-[0-9]+)?$/            { mh = $0 }
$1 ~ /^BenchmarkServeCache\/disk-hit(-[0-9]+)?$/           { dh = $0 }
$1 ~ /^BenchmarkServeCache\/disk-write-through(-[0-9]+)?$/ { dw = $0 }
END {
	emit("BenchmarkServeCache/mem-hit", mh); printf ",\n"
	emit("BenchmarkServeCache/disk-hit", dh); printf ",\n"
	emit("BenchmarkServeCache/disk-write-through", dw)
}')

servetmp=$(mktemp -d)
memcond_pid=""
trap 'kill "$memcond_pid" 2>/dev/null || true; rm -rf "$servetmp"' EXIT
go build -o "$servetmp/memcond" ./cmd/memcond
go build -o "$servetmp/memload" ./cmd/memload

start_memcond() {
	rm -f "$servetmp/addr"
	"$servetmp/memcond" -addr 127.0.0.1:0 -addr-file "$servetmp/addr" \
		-cache-dir "$servetmp/cache" 2>/dev/null &
	memcond_pid=$!
	i=0
	while [ ! -s "$servetmp/addr" ]; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "bench: memcond never wrote its address file" >&2
			exit 1
		fi
		sleep 0.1
	done
}
stop_memcond() {
	kill -TERM "$memcond_pid"
	wait "$memcond_pid"
	memcond_pid=""
}
load() {
	"$servetmp/memload" -addr "$(cat "$servetmp/addr")" \
		-exp fig4,fig6 -seeds 2 -scale 0.05 -simtime 200000 -mixes 3 -json "$@"
}

echo "bench: serving ladder (4 keys = fig4,fig6 x 2 seeds)"
start_memcond
load -n 4 -c 4 >"$servetmp/cold.json"
load -n 2000 -c 1000 -min-hits 1 >"$servetmp/memhit.json"
load -n 2000 -c 1000 -etag >"$servetmp/etag.json"
stop_memcond
start_memcond
load -n 2000 -c 1000 -min-disk 1 >"$servetmp/warm_restart.json"
stop_memcond
rm -rf "$servetmp/cache"
start_memcond
load -n 2000 -c 1000 >"$servetmp/cold_restart.json"
stop_memcond

cat >BENCH_serve.json <<EOF
{
  "benchmarks": "go test -run ^\$ -bench BenchmarkServeCache -benchmem -benchtime=2s ./internal/servecache; daemon ladder via cmd/memload -json (fig4,fig6 x 2 seeds = 4 keys, -scale 0.05 -simtime 200000 -mixes 3)",
  "baseline": {
    "note": "measured immediately before this refactor: single-mutex LRU (no shards, no disk tier, per-request JSON encoding) and the daemon it backed",
    "cpu": "Intel(R) Xeon(R) Processor @ 2.10GHz (1 core)",
    "BenchmarkServeCacheBaseline/mem-hit-parallel": {"ns_per_op": 38.24, "bytes_per_op": 0, "allocs_per_op": 0},
    "memload_mem_hit_c1000": {"requests": 2000, "rps": 3428, "latency_ms": {"min": 10.366, "p50": 198.727, "p95": 448.773, "max": 476.111}}
  },
  "after": {
    "cpu": "$serve_cpu",
$serve_bench,
    "serving": {
      "note": "cold = first run of each key (experiments execute); mem_hit = warm daemon, memory tier; etag_304 = If-None-Match revalidation (no bodies); warm_restart = restarted daemon over the same -cache-dir (disk_hits > 0, misses must be 0: zero re-runs); cold_restart = restarted daemon with the cache directory cleared (every key re-runs)",
      "cold": $(cat "$servetmp/cold.json"),
      "mem_hit_c1000": $(cat "$servetmp/memhit.json"),
      "etag_304_c1000": $(cat "$servetmp/etag.json"),
      "warm_restart_c1000": $(cat "$servetmp/warm_restart.json"),
      "cold_restart_c1000": $(cat "$servetmp/cold_restart.json")
    }
  }
}
EOF

echo "bench: BENCH_serve.json updated"
