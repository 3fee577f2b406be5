GO ?= go

.PHONY: build test race vet bench fuzz ci metrics-demo serve-demo reports

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs the whole suite under the race detector. The experiment
# sweeps, the -all CLI path and softmc's AllFailFraction all fan out
# across goroutines, so this is the tier that catches data races the
# plain suite cannot. -short skips the slowest golden sweeps; ci runs
# them in the plain pass.
race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# fuzz gives each fuzz target a short budget on top of its checked-in
# seed corpus: the CLI arguments, the request JSON memcond decodes, then
# every decoder at the program boundary — the compact trace stream (the
# only trace reader), the CE log, and the serving cache's disk entries —
# then the engine's settled-write path against the frozen full-path
# engine, over generated bursty write sequences, and last the CIL fold
# of Figs. 11 and 12 against the per-CIL loops it replaced.
fuzz:
	$(GO) test -fuzz=FuzzMemconsimArgs -fuzztime=10s ./cmd/memconsim
	$(GO) test -fuzz=FuzzRequest -fuzztime=10s ./internal/experiments
	$(GO) test -fuzz=FuzzStream -fuzztime=10s ./internal/trace
	$(GO) test -fuzz=FuzzCELog -fuzztime=10s ./internal/fleet
	$(GO) test -fuzz=FuzzDiskStore -fuzztime=10s ./internal/servecache
	$(GO) test -fuzz=FuzzEngineSettledWrites -fuzztime=10s ./internal/core
	$(GO) test -fuzz=FuzzCILFold -fuzztime=10s ./internal/pareto

ci:
	./scripts/ci.sh

# metrics-demo runs a scaled-down sweep with the observability layer
# attached and prints the human-readable metrics table (counters,
# histograms, per-phase wall times, worker-pool utilization).
metrics-demo:
	$(GO) run ./cmd/memconsim -exp fig14 -scale 0.1 -metrics - -metrics-format table

# serve-demo starts the experiment-serving daemon and drives it with
# 2000 concurrent requests over 4 distinct cache keys: singleflight
# collapses them onto 4 runs, every other response is a byte-identical
# cache hit, and SIGTERM drains the daemon cleanly.
serve-demo:
	./scripts/serve_demo.sh

# reports regenerates the committed small-scale reference reports that
# CI diffs against (and the golden -all text capture and -all metrics
# document, which use the same settings). Run after an intended numeric
# change and commit the result; unintended diffs in the output are
# regressions.
reports:
	$(GO) run ./cmd/memconsim -all -scale 0.05 -simtime 200000 -mixes 3 -parallel 4 \
		-out testdata/reports -metrics cmd/memconsim/testdata/metrics_all.json \
		> cmd/memconsim/testdata/golden_all.txt
