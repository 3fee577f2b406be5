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

func init() {
	registry["loop"] = entry{RunClosedLoop, "Closed loop: simulate a system, capture its bus trace (HMTT-style), feed MEMCON", false}
}

// ClosedLoopResult is the end-to-end pipeline outcome: a simulated
// multiprogrammed system's memory traffic, captured at the bus the way
// the paper's HMTT infrastructure captures it, drives the MEMCON engine
// directly.
type ClosedLoopResult struct {
	resultMeta
	CapturedWrites int
	CapturedReads  int
	Pages          int
	// Core is the MEMCON engine report for the captured write trace.
	Core     core.Report
	ReadSkip core.ReadSkipReport
	Combined float64
}

// RunClosedLoop simulates bursty multiprogrammed traffic against the
// memory controller with an attached tracer, then runs MEMCON (and the
// read-aware analysis) on the captured traces.
func RunClosedLoop(ctx context.Context, req Request, rt Runtime) (Result, error) {
	memCfg := memctrl.DefaultConfig()
	memCfg.Seed = req.Seed
	ctrl, err := memctrl.New(memCfg)
	if err != nil {
		return nil, err
	}
	tracer := memctrl.NewBusTracer(memCfg.Banks)
	tracer.CaptureReads = true
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
	rep, err := core.RunContext(ctx, writes, cfg, core.WithObserver(rt.Observer))
	if err != nil {
		return nil, err
	}
	rs, err := core.ReadSkipAnalysis(reads, dram.RefreshWindowDefault)
	if err != nil {
		return nil, err
	}
	return &ClosedLoopResult{
		CapturedWrites: len(writes.Events),
		CapturedReads:  len(reads.Events),
		Pages:          writes.Pages(),
		Core:           rep,
		ReadSkip:       rs,
		Combined:       core.CombinedSavings(rep, rs),
	}, nil
}

// Report builds the closed-loop document. The stage column mixes counts
// and fractions, so the machine-facing value column is a float.
func (r *ClosedLoopResult) Report() *report.Report {
	rep := report.New(r.provenance())
	rep.Textf("Closed loop — simulate, capture at the bus, run MEMCON on the capture\n\n")
	t := report.NewTable("rows",
		report.CStr("stage", ""),
		report.CFloat("result", "", ""))
	t.Add(report.S("captured write-backs"), report.F(float64(r.CapturedWrites), itoa(r.CapturedWrites)))
	t.Add(report.S("captured reads"), report.F(float64(r.CapturedReads), itoa(r.CapturedReads)))
	t.Add(report.S("pages"), report.F(float64(r.Pages), itoa(r.Pages)))
	t.Add(report.S("MEMCON refresh reduction"), report.F(r.Core.RefreshReduction(), pct(r.Core.RefreshReduction())))
	t.Add(report.S("read-skip coverage"), report.F(r.ReadSkip.SkipFraction(), pct(r.ReadSkip.SkipFraction())))
	t.Add(report.S("combined savings"), report.F(r.Combined, pct(r.Combined)))
	rep.AddTable(t)
	rep.Textf("\nthe same pipeline the paper's methodology implies: its HMTT tracer captured\nreal machines; ours captures the simulated system, byte-compatible with\ncmd/tracegen output\n")
	return rep
}
