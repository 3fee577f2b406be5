package experiments

import (
	"context"
	"math/rand"

	"memcon/internal/core"
	"memcon/internal/dram"
	"memcon/internal/memctrl"
	"memcon/internal/report"
	"memcon/internal/trace"
	"memcon/internal/workload"
)

// runClosedLoop is the end-to-end pipeline: a simulated
// multiprogrammed system's memory traffic, captured at the bus the way
// the paper's HMTT infrastructure captures it, drives the MEMCON engine
// directly. It simulates bursty traffic against the memory controller
// with an attached tracer, then runs MEMCON (and the read-aware
// analysis) on the captured traces. The stage column of the report
// mixes counts and fractions, so the machine-facing value column is a
// float.
func runClosedLoop(ctx context.Context, req Request, rt Runtime) (*report.Report, error) {
	memCfg := memctrl.DefaultConfig()
	memCfg.Seed = req.Seed
	ctrl, err := memctrl.New(memCfg)
	if err != nil {
		return nil, err
	}
	tracer := memctrl.NewBusTracer(memCfg.Banks)
	ctrl.AttachTracer(tracer)

	// Bursty synthetic system: pages receive a write-back burst once,
	// then only reads — compressed to seconds so the capture stays
	// cheap, with the quantum scaled to match.
	rng := rand.New(rand.NewSource(req.Seed))
	bench := workload.SimBenchmarks()
	pages := int(2000 * req.Scale)
	if pages < 64 {
		pages = 64
	}
	at := dram.Nanoseconds(0)
	horizon := 4 * dram.Second
	for p := 0; p < pages; p++ {
		b := bench[p%len(bench)]
		start := dram.Nanoseconds(rng.Int63n(int64(dram.Second)))
		// One write-back burst per page.
		t := start
		for w := 0; w < 1+rng.Intn(2); w++ {
			if _, err := ctrl.Access(t, p%memCfg.Banks, p/memCfg.Banks, true); err != nil {
				return nil, err
			}
			t += dram.Microsecond
		}
		// Reads sprinkled through the rest of the horizon.
		reads := 2 + int(b.MPKI/4)
		for rdx := 0; rdx < reads; rdx++ {
			rt := start + dram.Nanoseconds(rng.Int63n(int64(horizon-start)))
			if rt > at {
				at = rt
			}
			if _, err := ctrl.Access(rt, p%memCfg.Banks, p/memCfg.Banks, false); err != nil {
				return nil, err
			}
		}
	}

	writes := tracer.WriteTrace("closed-loop", horizon)
	reads := tracer.ReadTrace("closed-loop-reads", horizon)

	// The compressed 4 s horizon uses a proportionally compressed
	// quantum (the statistics, not the wall-clock, are what matter).
	cfg := core.DefaultConfig()
	cfg.Quantum = 256 * trace.Millisecond
	run, err := core.RunContext(ctx, writes, cfg, core.WithObserver(rt.Observer))
	if err != nil {
		return nil, err
	}
	rs, err := core.ReadSkipAnalysis(reads, dram.RefreshWindowDefault)
	if err != nil {
		return nil, err
	}
	combined := core.CombinedSavings(run, rs)

	rep := report.New()
	rep.Textf("Closed loop — simulate, capture at the bus, run MEMCON on the capture\n\n")
	t := report.NewTable("rows",
		report.CStr("stage", ""),
		report.CFloat("result", "", ""))
	count := func(n int) report.Cell { return report.F(float64(n), itoa(n)) }
	t.Add(report.S("captured write-backs"), count(len(writes.Events)))
	t.Add(report.S("captured reads"), count(len(reads.Events)))
	t.Add(report.S("pages"), count(writes.Pages()))
	t.Add(report.S("MEMCON refresh reduction"), report.F(run.RefreshReduction(), pct(run.RefreshReduction())))
	t.Add(report.S("read-skip coverage"), report.F(rs.SkipFraction(), pct(rs.SkipFraction())))
	t.Add(report.S("combined savings"), report.F(combined, pct(combined)))
	rep.AddTable(t)
	rep.Textf("\nthe same pipeline the paper's methodology implies: its HMTT tracer captured\nreal machines; ours captures the simulated system, byte-compatible with\ncmd/tracegen output\n")
	return rep, nil
}
