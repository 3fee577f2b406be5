// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`), plus ablation
// benches for the design choices DESIGN.md calls out and
// micro-benchmarks of the hot substrate paths.
//
// Figure/table benches execute the corresponding experiment at reduced
// scale and report the headline quantity as a custom metric, so a bench
// run regenerates the paper's rows/series shape alongside timing.
package memcon

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"memcon/internal/core"
	"memcon/internal/costmodel"
	"memcon/internal/ddr3"
	"memcon/internal/disturb"
	"memcon/internal/dram"
	"memcon/internal/experiments"
	"memcon/internal/faults"
	"memcon/internal/fleet"
	"memcon/internal/memctrl"
	"memcon/internal/pril"
	"memcon/internal/report"
	"memcon/internal/softmc"
	"memcon/internal/trace"
	"memcon/internal/workload"
)

// benchRequest keeps per-iteration cost bounded while preserving the
// statistical shape of each experiment.
func benchRequest(id string) experiments.Request {
	return experiments.Request{Experiment: id, Inputs: report.Inputs{Seed: 42, Scale: 0.05, SimTimeNs: 200_000, Mixes: 4}}
}

func runExperiment(b *testing.B, id string) *report.Report {
	b.Helper()
	var out *report.Report
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunRequest(context.Background(), benchRequest(id), experiments.Runtime{})
		if err != nil {
			b.Fatal(err)
		}
		out = res.Report()
	}
	return out
}

// reportCell reads one number of a report the way a consumer of its
// JSON reads it: from the data table key, column col, and the first
// row whose leading cells have the canonical values labels (no labels
// selects the first row). Integer cells convert to float64. A missing
// table, column or row, or a non-numeric cell, fails the benchmark.
func reportCell(b *testing.B, rep *report.Report, key, col string, labels ...string) float64 {
	b.Helper()
	for _, t := range rep.Tables() {
		if t.Key != key {
			continue
		}
		ci := slices.IndexFunc(t.Columns, func(c report.Column) bool { return c.Name == col })
		if ci < 0 {
			b.Fatalf("table %q has no column %q", key, col)
		}
	rows:
		for _, r := range t.Rows {
			for i, l := range labels {
				if r.Cells[i].Value() != l {
					continue rows
				}
			}
			switch c := r.Cells[ci]; c.Kind {
			case report.KindFloat:
				return c.Float
			case report.KindInt:
				return float64(c.Int)
			}
			b.Fatalf("table %q column %q row %q is not numeric", key, col, labels)
		}
		b.Fatalf("table %q has no row %q", key, labels)
	}
	b.Fatalf("%s report has no table %q", rep.Prov.Experiment, key)
	return 0
}

func BenchmarkFig3PatternSensitivity(b *testing.B) {
	out := runExperiment(b, "fig3")
	b.ReportMetric(reportCell(b, out, "summary", "unique_cells"), "failing-cells")
	b.ReportMetric(reportCell(b, out, "summary", "conditional_cells"), "conditional-cells")
}

func BenchmarkFig4ContentFailures(b *testing.B) {
	out := runExperiment(b, "fig4")
	b.ReportMetric(100*reportCell(b, out, "rows", "avg", "ALL FAIL"), "allfail-%rows")
	b.ReportMetric(reportCell(b, out, "summary", "ratio_min"), "ratio-min")
	b.ReportMetric(reportCell(b, out, "summary", "ratio_max"), "ratio-max")
}

func BenchmarkFig6MinWriteInterval(b *testing.B) {
	out := runExperiment(b, "fig6")
	b.ReportMetric(reportCell(b, out, "configs", "min_write_interval_ms", "Read and Compare", "64"), "readcmp-mwi-ms")
	b.ReportMetric(reportCell(b, out, "configs", "min_write_interval_ms", "Copy and Compare", "64"), "copycmp-mwi-ms")
}

func BenchmarkFig7IntervalDistribution(b *testing.B) {
	out := runExperiment(b, "fig7")
	b.ReportMetric(100*reportCell(b, out, "apps", "under_1ms"), "under1ms-%")
}

func BenchmarkFig8ParetoFit(b *testing.B) {
	out := runExperiment(b, "fig8")
	b.ReportMetric(reportCell(b, out, "fits", "r2"), "r2")
	b.ReportMetric(reportCell(b, out, "fits", "alpha"), "alpha")
}

func BenchmarkFig9LongIntervalTime(b *testing.B) {
	out := runExperiment(b, "fig9")
	b.ReportMetric(100*reportCell(b, out, "rows", "long_share", "AVERAGE"), "long-time-%")
}

// seriesMeanAt1024 averages a Figs. 11/12 series over the workloads at
// CIL 1024 ms.
func seriesMeanAt1024(b *testing.B, rep *report.Report) float64 {
	apps := workload.Apps()
	var sum float64
	for _, app := range apps {
		sum += reportCell(b, rep, "series", app.Name, "1024")
	}
	return sum / float64(len(apps))
}

func BenchmarkFig11RILvsCIL(b *testing.B) {
	out := runExperiment(b, "fig11")
	// Report the average conditional at CIL 1024 ms across apps.
	b.ReportMetric(seriesMeanAt1024(b, out), "p-ril-at-1024")
}

func BenchmarkFig12Coverage(b *testing.B) {
	out := runExperiment(b, "fig12")
	b.ReportMetric(100*seriesMeanAt1024(b, out), "coverage-%-at-1024")
}

func BenchmarkFig14RefreshReduction(b *testing.B) {
	out := runExperiment(b, "fig14")
	b.ReportMetric(100*reportCell(b, out, "summary", "avg_at_1024"), "avg-reduction-%")
	b.ReportMetric(100*reportCell(b, out, "summary", "min_at_1024"), "min-reduction-%")
	b.ReportMetric(100*reportCell(b, out, "summary", "max_at_1024"), "max-reduction-%")
}

func BenchmarkFig15Speedup(b *testing.B) {
	out := runExperiment(b, "fig15")
	b.ReportMetric(reportCell(b, out, "cells", "speedup", "1", "32Gb", "0.75"), "1core-32gb-75pct")
	b.ReportMetric(reportCell(b, out, "cells", "speedup", "4", "32Gb", "0.75"), "4core-32gb-75pct")
	b.ReportMetric(reportCell(b, out, "cells", "speedup", "1", "8Gb", "0.6"), "1core-8gb-60pct")
}

func BenchmarkTable3TestOverhead(b *testing.B) {
	out := runExperiment(b, "table3")
	b.ReportMetric(100*reportCell(b, out, "losses", "t1024", "1-core"), "1core-1024tests-loss-%")
	b.ReportMetric(100*reportCell(b, out, "losses", "t1024", "4-core"), "4core-1024tests-loss-%")
}

func BenchmarkFig16RefreshPolicies(b *testing.B) {
	out := runExperiment(b, "fig16")
	b.ReportMetric(reportCell(b, out, "cells", "speedup", "1", "32Gb", "MEMCON"), "memcon-1core-32gb")
	b.ReportMetric(reportCell(b, out, "cells", "speedup", "1", "32Gb", "RAIDR"), "raidr-1core-32gb")
	b.ReportMetric(reportCell(b, out, "cells", "speedup", "1", "32Gb", "64ms"), "ideal-1core-32gb")
}

func BenchmarkFig17LoRefCoverage(b *testing.B) {
	out := runExperiment(b, "fig17")
	b.ReportMetric(100*reportCell(b, out, "summary", "avg_at_1024"), "coverage-%")
}

func BenchmarkFig18TestingTime(b *testing.B) {
	out := runExperiment(b, "fig18")
	b.ReportMetric(100*reportCell(b, out, "summary", "avg_testing_share"), "testing-share-%")
}

func BenchmarkFig19HalvedIntervals(b *testing.B) {
	out := runExperiment(b, "fig19")
	b.ReportMetric(reportCell(b, out, "series", "full", "1024")-reportCell(b, out, "series", "halved", "1024"), "delta-p-at-1024")
}

// BenchmarkParallelMixes measures the mix-simulation sweep (the
// hottest experiment path) at increasing worker counts. The workers-1
// case is the serial baseline; fig15 results are byte-identical across
// all sub-benchmarks, so the only variable is wall-clock time.
func BenchmarkParallelMixes(b *testing.B) {
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		counts = append(counts, n)
	}
	for _, w := range counts {
		w := w
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			req := benchRequest("fig15")
			req.Mixes = 8
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunRequest(context.Background(), req, experiments.Runtime{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCostModel(b *testing.B) {
	cfg := costmodel.DefaultConfig()
	var mwi dram.Nanoseconds
	for i := 0; i < b.N; i++ {
		var err error
		mwi, err = cfg.MinWriteInterval()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(mwi)/1e6, "mwi-ms")
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

// benchTrace builds one reusable workload trace.
func benchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	app, err := workload.AppByName("Netflix")
	if err != nil {
		b.Fatal(err)
	}
	return app.Generate(42, 0.05)
}

// AblationQuantum: quantum (CIL) choice 512/1024/2048 ms.
func BenchmarkAblationQuantum(b *testing.B) {
	tr := benchTrace(b)
	for _, q := range []trace.Microseconds{512, 1024, 2048} {
		q := q
		b.Run(formatMs(q), func(b *testing.B) {
			var rep core.Report
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.Quantum = q * trace.Millisecond
				var err error
				rep, err = core.RunWith(tr, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*rep.RefreshReduction(), "reduction-%")
		})
	}
}

// AblationTestMode: Read-and-Compare vs Copy-and-Compare.
func BenchmarkAblationTestMode(b *testing.B) {
	tr := benchTrace(b)
	for _, mode := range []costmodel.TestMode{costmodel.ReadCompare, costmodel.CopyCompare} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			var rep core.Report
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.Mode = mode
				var err error
				rep, err = core.RunWith(tr, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.MinWriteInterval)/1e6, "mwi-ms")
			b.ReportMetric(rep.TestingTimeNs()/1e3, "testing-us")
		})
	}
}

// AblationBufferCap: PRIL write-buffer capacity (overflow -> HI-REF).
func BenchmarkAblationBufferCap(b *testing.B) {
	tr := benchTrace(b)
	for _, cap := range []int{0, 4000, 64, 8} {
		cap := cap
		b.Run(capName(cap), func(b *testing.B) {
			var rep core.Report
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.BufferCap = cap
				var err error
				rep, err = core.RunWith(tr, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*rep.RefreshReduction(), "reduction-%")
			b.ReportMetric(float64(rep.Pril.Discards), "discards")
		})
	}
}

// AblationLoRef: LO-REF interval 64/128/256 ms (longer windows amortize
// faster but risk more failures per window).
func BenchmarkAblationLoRef(b *testing.B) {
	tr := benchTrace(b)
	for _, lo := range []dram.Nanoseconds{64, 128, 256} {
		lo := lo
		b.Run(formatMs(trace.Microseconds(lo)), func(b *testing.B) {
			var rep core.Report
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.LoRef = lo * dram.Millisecond
				var err error
				rep, err = core.RunWith(tr, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*rep.RefreshReduction(), "reduction-%")
			b.ReportMetric(float64(rep.MinWriteInterval)/1e6, "mwi-ms")
		})
	}
}

func formatMs(v trace.Microseconds) string {
	switch v {
	case 512:
		return "512ms"
	case 1024:
		return "1024ms"
	case 2048:
		return "2048ms"
	case 64:
		return "64ms"
	case 128:
		return "128ms"
	case 256:
		return "256ms"
	default:
		return "custom"
	}
}

func capName(c int) string {
	switch c {
	case 0:
		return "unbounded"
	case 4000:
		return "paper-4000"
	case 64:
		return "tiny-64"
	case 8:
		return "starved-8"
	default:
		return "custom"
	}
}

// --- Observability overhead ---

// BenchmarkEngineObserverDisabled is the zero-cost baseline: the event
// path with no observer attached is a nil check per site and must not
// allocate. Compare against BenchmarkEngineObserverEnabled to see the
// full price of metrics aggregation.
func BenchmarkEngineObserverDisabled(b *testing.B) {
	tr := benchTrace(b)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunWith(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Events)), "events/op")
}

// BenchmarkEngineObserverEnabled runs the same trace with the metrics
// aggregator attached, pricing the per-event counter and histogram
// updates.
func BenchmarkEngineObserverEnabled(b *testing.B) {
	tr := benchTrace(b)
	cfg := DefaultConfig()
	reg := NewRegistry()
	m := NewMetrics(reg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunWith(tr, cfg, WithObserver(m)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Events)), "events/op")
}

// --- Substrate micro-benchmarks ---

func BenchmarkPRILObserve(b *testing.B) {
	tr := benchTrace(b)
	cfg := pril.Config{Quantum: 1024 * trace.Millisecond, NumPages: tr.MaxPage() + 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := pril.Run(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Events)), "events/op")
}

func BenchmarkFaultEvaluation(b *testing.B) {
	geom := dram.Geometry{Ranks: 1, ChipsPerRank: 1, BanksPerChip: 1, RowsPerBank: 1024, ColsPerRow: 1024, RedundantCols: 16}
	scr := dram.NewScrambler(geom, 1, nil)
	model, err := faults.NewModel(geom, scr, 1, faults.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	mod, err := dram.NewModule(geom)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.FailingCells(mod, dram.RowAddress{Bank: 0, Row: i % geom.RowsPerBank}, faults.CharacterizationIdle)
	}
}

// fillBenchRandom stores deterministic random content in every module
// row.
func fillBenchRandom(b *testing.B, mod *dram.Module, seed int64) {
	b.Helper()
	g := mod.Geometry()
	rng := rand.New(rand.NewSource(seed))
	buf := dram.NewRow(g.ColsPerRow)
	for bank := 0; bank < g.BanksPerChip; bank++ {
		for r := 0; r < g.RowsPerBank; r++ {
			buf.Randomize(rng)
			if err := mod.WriteRow(dram.RowAddress{Bank: bank, Row: r}, buf, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFailingCells prices one fault-model row query on the default
// geometry with random content — the kernel under every read-back and
// online test. scripts/bench.sh records this in BENCH_hotpath.json.
func BenchmarkFailingCells(b *testing.B) {
	geom := dram.DefaultGeometry()
	scr := dram.NewScrambler(geom, 42, nil)
	model, err := faults.NewModel(geom, scr, 42, faults.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	mod, err := dram.NewModule(geom)
	if err != nil {
		b.Fatal(err)
	}
	fillBenchRandom(b, mod, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.FailingCells(mod, geom.AddressOfIndex(i%geom.TotalRows()), faults.CharacterizationIdle)
	}
}

// BenchmarkFailingCellsDense prices the row query on a 20x-denser weak
// population (6.4e-3 vs the default 3.2e-4), where most rows carry
// several weak cells per 64-bit word — the regime the bit-parallel
// word kernel exists for. scripts/bench.sh records this in
// BENCH_hotpath.json alongside the sparse query.
func BenchmarkFailingCellsDense(b *testing.B) {
	geom := dram.DefaultGeometry()
	params := faults.DefaultParams()
	params.WeakCellFraction = 6.4e-3
	scr := dram.NewScrambler(geom, 42, nil)
	model, err := faults.NewModel(geom, scr, 42, params)
	if err != nil {
		b.Fatal(err)
	}
	mod, err := dram.NewModule(geom)
	if err != nil {
		b.Fatal(err)
	}
	fillBenchRandom(b, mod, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.FailingCells(mod, geom.AddressOfIndex(i%geom.TotalRows()), faults.CharacterizationIdle)
	}
}

// BenchmarkDisturbScan prices a full read-disturb sweep on the default
// geometry with random content: one AppendFailures query per victim row
// at a hammer count deep inside the population (half the victims flip),
// the kernel under the disturb-exposure census. scripts/bench.sh
// records this in BENCH_disturb.json.
func BenchmarkDisturbScan(b *testing.B) {
	geom := dram.DefaultGeometry()
	scr := dram.NewScrambler(geom, 42, nil)
	model, err := faults.NewModel(geom, scr, 42, faults.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	dm, err := disturb.NewModel(model, 42, disturb.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	mod, err := dram.NewModule(geom)
	if err != nil {
		b.Fatal(err)
	}
	fillBenchRandom(b, mod, 1)
	// The geometric mean of the threshold range: roughly half the victim
	// rows are past HCfirst at this hammer count.
	w := faults.RowWindow{Hammer: 22_600}
	var victims, flipped int
	buf := make([]int, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victims, flipped = 0, 0
		for bank := 0; bank < geom.BanksPerChip; bank++ {
			rows, _ := dm.VictimRows(bank)
			victims += len(rows)
			for _, r := range rows {
				buf = dm.AppendFailures(buf[:0], mod, dram.RowAddress{Bank: bank, Row: int(r)}, w)
				if len(buf) > 0 {
					flipped++
				}
			}
		}
	}
	b.ReportMetric(float64(victims), "victim-rows/op")
	b.ReportMetric(float64(flipped), "flipped-rows/op")
}

// BenchmarkReadBack prices one full-array read-back scan on the default
// geometry after a checkerboard fill and one characterization idle, at
// several worker counts (results are byte-identical at all of them).
// scripts/bench.sh records workers-1 in BENCH_hotpath.json.
func BenchmarkReadBack(b *testing.B) {
	geom := dram.DefaultGeometry()
	for _, workers := range []int{1, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			scr := dram.NewScrambler(geom, 42, nil)
			model, err := faults.NewModel(geom, scr, 42, faults.DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			mod, err := dram.NewModule(geom)
			if err != nil {
				b.Fatal(err)
			}
			tester, err := softmc.NewTester(mod, model)
			if err != nil {
				b.Fatal(err)
			}
			tester.SetParallelism(workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := tester.FillPattern(softmc.CheckerboardPattern(0)); err != nil {
					b.Fatal(err)
				}
				tester.Idle(faults.CharacterizationIdle)
				b.StartTimer()
				tester.ReadBack()
			}
		})
	}
}

// BenchmarkRandomPatternFill prices filling Fig. 3's one-bank chip
// (1024 rows of 16 words) with one random pattern, the fill fig3
// repeats for each of its 76 random patterns.
func BenchmarkRandomPatternFill(b *testing.B) {
	geom := dram.DefaultGeometry()
	geom.BanksPerChip, geom.RowsPerBank = 1, geom.RowsPerBank/4
	model, err := faults.NewModel(geom, dram.NewScrambler(geom, 42, nil), 42, faults.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	mod, err := dram.NewModule(geom)
	if err != nil {
		b.Fatal(err)
	}
	tester, err := softmc.NewTester(mod, model)
	if err != nil {
		b.Fatal(err)
	}
	p := softmc.RandomPattern(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tester.FillPattern(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*geom.TotalRows()), "ns/row")
}

func BenchmarkSoftMCPatternRun(b *testing.B) {
	geom := dram.Geometry{Ranks: 1, ChipsPerRank: 1, BanksPerChip: 1, RowsPerBank: 256, ColsPerRow: 512, RedundantCols: 16}
	for i := 0; i < b.N; i++ {
		scr := dram.NewScrambler(geom, 1, nil)
		model, err := faults.NewModel(geom, scr, 1, faults.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		mod, err := dram.NewModule(geom)
		if err != nil {
			b.Fatal(err)
		}
		tester, err := softmc.NewTester(mod, model)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tester.RunPattern(softmc.CheckerboardPattern(0), faults.CharacterizationIdle); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemctrlAccess(b *testing.B) {
	cfg := memctrl.DefaultConfig()
	ctrl, err := memctrl.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	at := dram.Nanoseconds(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctrl.Access(at, i%8, i, i%3 == 0); err != nil {
			b.Fatal(err)
		}
		at += 50
	}
}

// TraceGeneration: the twelve application traces at the reproduction's
// settings (seed 42, scale 0.05), the set every trace-driven experiment
// generates.
func BenchmarkTraceGeneration(b *testing.B) {
	apps := workload.Apps()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, app := range apps {
			if tr := app.Generate(42, 0.05); len(tr.Events) == 0 {
				b.Fatalf("%s: empty trace", app.Name)
			}
		}
	}
}

// TraceIntervals: Intervals(true) over the same twelve traces, once per
// fresh trace, as its callers call it on a trace they hold: fig19 on
// its full and halved traces, tracegen -inspect on a trace file,
// examples/writeintervals and membench's L2 probe on generated traces.
// Each call gets a new Trace over the same events, so no index a trace
// memoizes is carried from one iteration to the next.
func BenchmarkTraceIntervals(b *testing.B) {
	var traces []*trace.Trace
	for _, app := range workload.Apps() {
		traces = append(traces, app.Generate(42, 0.05))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range traces {
			fresh := &trace.Trace{Name: tr.Name, Duration: tr.Duration, Events: tr.Events}
			if len(fresh.Intervals(true)) == 0 {
				b.Fatalf("%s: no intervals", tr.Name)
			}
		}
	}
}

// AppIntervals: the same twelve applications' intervals (seed 42, scale
// 0.05, trailing included) streamed by EachInterval, as the interval
// figures 7, 8, 9, 11 and 12 read them: the generator's own loop, with
// no trace built, sorted or indexed.
func BenchmarkAppIntervals(b *testing.B) {
	apps := workload.Apps()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, app := range apps {
			n := 0
			app.EachInterval(42, 0.05, true, func(float64) { n++ })
			if n == 0 {
				b.Fatalf("%s: no intervals", app.Name)
			}
		}
	}
}

// TraceSort: Trace.Sort on three input shapes, each copied into a work
// slice per iteration (the copy is timed too). "generated" is the
// twelve traces above in insertion order, their events stably sorted
// by page: a few long runs of hot pages and many short cold ones, the
// shape every producer hands the Builder. "nearly-sorted" is a bus
// capture in issue order where one write in 64 is stamped up to 1 ms
// early. "random" is 1 Mi events at uniform times over 300 s, one run
// per two events: the merge sort's worst shape, which no producer
// makes.
func BenchmarkTraceSort(b *testing.B) {
	var generated [][]trace.Event
	for _, app := range workload.Apps() {
		events := app.Generate(42, 0.05).Events
		slices.SortStableFunc(events, func(x, y trace.Event) int { return cmp.Compare(x.Page, y.Page) })
		generated = append(generated, events)
	}
	rng := rand.New(rand.NewSource(42))
	captured := make([]trace.Event, 1<<18)
	at := trace.Microseconds(trace.Millisecond)
	for i := range captured {
		at += trace.Microseconds(rng.Intn(20))
		captured[i] = trace.Event{Page: uint32(rng.Intn(1 << 16)), At: at}
		if rng.Intn(64) == 0 {
			captured[i].At -= trace.Microseconds(rng.Intn(int(trace.Millisecond)))
		}
	}
	random := make([]trace.Event, 1<<20)
	for i := range random {
		random[i] = trace.Event{Page: uint32(i), At: rng.Int63n(300 * trace.Second)}
	}

	for _, bc := range []struct {
		name   string
		inputs [][]trace.Event
	}{
		{"generated", generated},
		{"nearly-sorted", [][]trace.Event{captured}},
		{"random", [][]trace.Event{random}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			events := 0
			for _, in := range bc.inputs {
				events += len(in)
			}
			work := make([]trace.Event, 0, events)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, in := range bc.inputs {
					tr := &trace.Trace{Events: append(work[:0], in...)}
					tr.Sort()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
		})
	}
}

// --- Benches for extension substrates ---

func BenchmarkDDR3CommandSchedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := ddr3.DefaultConfig()
		ctrl, err := ddr3.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		at := dram.Nanoseconds(0)
		for r := 0; r < 1000; r++ {
			at += 60
			if err := ctrl.Enqueue(ddr3.Request{ID: r, Arrival: at, Bank: r % 8, Row: r % 16, Write: r%4 == 0}); err != nil {
				b.Fatal(err)
			}
		}
		if len(ctrl.Drain()) != 1000 {
			b.Fatal("lost requests")
		}
	}
	b.ReportMetric(1000, "requests/op")
}

func BenchmarkBitmapPRIL(b *testing.B) {
	tr := benchTrace(b)
	cfg := pril.Config{Quantum: 1024 * trace.Millisecond, NumPages: tr.MaxPage() + 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := pril.RunBitmap(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Events)), "events/op")
}

func BenchmarkTraceCompactEncode(b *testing.B) {
	tr := benchTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf countingWriter
		if err := tr.WriteCompact(&buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(buf.n)
	}
}

// BenchmarkTraceCompactDecode drains the same trace's compact bytes
// through trace.Stream.Read in 256-event batches, the decode path of
// every stream replay.
func BenchmarkTraceCompactDecode(b *testing.B) {
	tr := benchTrace(b)
	var buf bytes.Buffer
	if err := tr.WriteCompact(&buf); err != nil {
		b.Fatal(err)
	}
	rd := bytes.NewReader(nil)
	dst := make([]trace.Event, 256)
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(buf.Bytes())
		s, err := trace.NewStream(rd)
		if err != nil {
			b.Fatal(err)
		}
		for {
			_, err := s.Read(dst)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr.Events)), "ns/event")
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// --- Engine hot-loop benchmarks (recorded in BENCH_engine.json) ---

// benchSystemTrace builds a small deterministic trace confined to the
// given page space, for full-silicon System runs.
func benchSystemTrace(pages int) *trace.Trace {
	rng := rand.New(rand.NewSource(42))
	tr := &trace.Trace{Name: "bench-system"}
	at := trace.Microseconds(0)
	for i := 0; i < 20_000; i++ {
		at += trace.Microseconds(rng.Intn(400) + 10)
		tr.Events = append(tr.Events, trace.Event{Page: uint32(rng.Intn(pages)), At: at})
	}
	tr.Duration = at + trace.Second
	return tr
}

// BenchmarkEngineRun is the end-to-end engine benchmark scripts/bench.sh
// records in BENCH_engine.json:
//
//   - accounting: fresh engine per run on the Netflix trace — the
//     figure-generation path (compare BenchmarkEngineObserverDisabled
//     at the pre-flat-state baseline).
//   - stream: the same trace replayed from in-memory compact bytes
//     through trace.Stream, pricing the streaming decode on top of the
//     engine loop.
//   - system: full-silicon mode (module + fault model + online tests)
//     on a small geometry.
func BenchmarkEngineRun(b *testing.B) {
	tr := benchTrace(b)
	events := float64(len(tr.Events))

	b.Run("accounting", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.RunWith(tr, core.DefaultConfig()); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(events, "events/op")
	})

	b.Run("stream", func(b *testing.B) {
		var buf bytes.Buffer
		if err := tr.WriteCompact(&buf); err != nil {
			b.Fatal(err)
		}
		cfg := core.DefaultConfig()
		if max := tr.MaxPage(); max >= cfg.NumPages {
			cfg.NumPages = max + 1
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := trace.NewStream(bytes.NewReader(buf.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.RunSource(nil, s, cfg); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(buf.Len()))
		b.ReportMetric(events, "events/op")
	})

	b.Run("system", func(b *testing.B) {
		geom := dram.Geometry{Ranks: 1, ChipsPerRank: 1, BanksPerChip: 2, RowsPerBank: 256, ColsPerRow: 512, RedundantCols: 16}
		scr := dram.NewScrambler(geom, 42, nil)
		model, err := faults.NewModel(geom, scr, 42, faults.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		mod, err := dram.NewModule(geom)
		if err != nil {
			b.Fatal(err)
		}
		str := benchSystemTrace(geom.TotalRows())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys, err := core.NewSystem(core.DefaultConfig(), mod, model)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sys.Run(str); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(str.Events)), "events/op")
	})
}

// BenchmarkFleetRun times the fleet-scale simulation end to end: 64
// heterogeneous modules over 12 weekly scrub epochs, sharded across the
// worker pool. The events/op metric pins the workload shape — it must
// be identical at every worker count (the determinism contract), so a
// change in the metric between sub-benches is a bug, not noise.
func BenchmarkFleetRun(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			cfg := fleet.Config{Modules: 64, Seed: 42, Scale: 0.05, Workers: workers}
			var log *fleet.Log
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				log, err = fleet.Run(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(log.Events)), "events/op")
		})
	}
}

// BenchmarkFleetAnalyze times the analytics pass alone (clustering,
// classification, risk scoring) over a prebuilt 64-module CE log.
func BenchmarkFleetAnalyze(b *testing.B) {
	log, err := fleet.Run(context.Background(), fleet.Config{Modules: 64, Seed: 42, Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	var an *fleet.Analytics
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an = fleet.Analyze(log)
	}
	b.ReportMetric(float64(an.UniqueCells), "cells/op")
}
