package experiments

import (
	"context"
	"fmt"

	"memcon/internal/costmodel"
	"memcon/internal/dram"
	"memcon/internal/report"
)

// Fig6Config is one (test mode, LO-REF) combination of the Fig. 6 study.
type Fig6Config struct {
	Mode             costmodel.TestMode
	LoRef            dram.Nanoseconds
	TestCost         dram.Nanoseconds
	MinWriteInterval dram.Nanoseconds
}

// Fig6Result reproduces Fig. 6: accumulated-cost curves and the
// MinWriteInterval for each test mode / LO-REF interval.
type Fig6Result struct {
	resultMeta
	Configs []Fig6Config
	// Curve samples the primary configuration (Read-and-Compare, 64 ms)
	// like the figure does.
	Curve []costmodel.CurvePoint
}

// RunFig6 computes the cost-benefit crossovers.
func RunFig6(context.Context, Request, Runtime) (Result, error) {
	res := &Fig6Result{}
	cases := []struct {
		mode  costmodel.TestMode
		loRef dram.Nanoseconds
	}{
		{costmodel.ReadCompare, dram.RefreshWindowDefault},
		{costmodel.CopyCompare, dram.RefreshWindowDefault},
		{costmodel.ReadCompare, dram.RefreshWindow128},
		{costmodel.ReadCompare, dram.RefreshWindow256},
		{costmodel.CopyCompare, dram.RefreshWindow128},
		{costmodel.CopyCompare, dram.RefreshWindow256},
	}
	for _, cse := range cases {
		cfg := costmodel.DefaultConfig()
		cfg.Mode = cse.mode
		cfg.LoRefInterval = cse.loRef
		mwi, err := cfg.MinWriteInterval()
		if err != nil {
			return nil, err
		}
		res.Configs = append(res.Configs, Fig6Config{
			Mode:             cse.mode,
			LoRef:            cse.loRef,
			TestCost:         cfg.TestCost(),
			MinWriteInterval: mwi,
		})
	}
	primary := costmodel.DefaultConfig()
	res.Curve = primary.Curve(1000*dram.Millisecond, 112*dram.Millisecond)
	return res, nil
}

// Report builds the Fig. 6 document. The curve is the primary table:
// the pre-typed CSV export emitted the accumulated-cost series, and the
// shared renderer keeps that header (time_ms,hiref_ns,memcon_ns).
func (r *Fig6Result) Report() *report.Report {
	rep := report.New(r.provenance())
	rep.Primary = "curve"
	rep.Textf("Fig. 6 — cost of testing vs aggressive refresh (per row)\n\n")
	t := report.NewTable("configs",
		report.CStr("test_mode", "test mode"),
		report.CInt("loref_ms", "LO-REF", "ms"),
		report.CInt("test_cost_ns", "test cost", "ns"),
		report.CInt("min_write_interval_ms", "MinWriteInterval", "ms"))
	for _, c := range r.Configs {
		t.Add(report.S(c.Mode.String()),
			report.Id(int64(c.LoRef/dram.Millisecond), fmt.Sprintf("%d ms", c.LoRef/dram.Millisecond)),
			report.Id(int64(c.TestCost), fmt.Sprintf("%d ns", c.TestCost)),
			report.Id(int64(c.MinWriteInterval/dram.Millisecond), fmt.Sprintf("%d ms", c.MinWriteInterval/dram.Millisecond)))
	}
	rep.AddTable(t)
	rep.Textf("\naccumulated cost (Read and Compare, LO-REF 64 ms):\n")
	ct := report.NewTable("curve",
		report.CInt("time_ms", "time (ms)", "ms"),
		report.CInt("hiref_ns", "HI-REF (ns)", "ns"),
		report.CInt("memcon_ns", "MEMCON (ns)", "ns"))
	for _, p := range r.Curve {
		ct.Add(report.I(int64(p.Time/dram.Millisecond)),
			report.I(int64(p.HiRef)), report.I(int64(p.Memcon)))
	}
	rep.AddTable(ct)
	return rep
}

// AppendixResult reports the latency building blocks (paper appendix).
type AppendixResult struct {
	resultMeta
	Costs    costmodel.Breakdown
	Reserved float64
}

// RunAppendix computes the appendix numbers.
func RunAppendix(context.Context, Request, Runtime) (Result, error) {
	return &AppendixResult{
		Costs:    costmodel.Costs(dram.DDR31600()),
		Reserved: costmodel.CopyCompareReservedRows(512, 8, 262144),
	}, nil
}

// Report builds the appendix document. The value column mixes integer
// nanosecond cells with one float fraction — cells carry their own
// kinds, the column kind records the dominant one.
func (r *AppendixResult) Report() *report.Report {
	rep := report.New(r.provenance())
	rep.Textf("Appendix — DDR3-1600 cost building blocks\n\n")
	t := report.NewTable("costs",
		report.CStr("quantity", ""),
		report.CInt("value", "", "ns"),
		report.CStr("paper", ""))
	ns := func(v dram.Nanoseconds) report.Cell {
		return report.Id(int64(v), fmt.Sprintf("%d ns", v))
	}
	t.Add(report.S("row cycle (tRCD + 128*tCCD + tRP)"), ns(r.Costs.RowCycle), report.S("534 ns"))
	t.Add(report.S("refresh (tRAS + tRP)"), ns(r.Costs.RefreshCost), report.S("39 ns"))
	t.Add(report.S("Read and Compare (2 row reads)"), ns(r.Costs.ReadCompare), report.S("1068 ns"))
	t.Add(report.S("Copy and Compare (2 reads + 1 write)"), ns(r.Costs.CopyCompare), report.S("1602 ns"))
	t.Add(report.S("Copy and Compare reserved capacity"), report.F(r.Reserved, pct2(r.Reserved)), report.S("1.56%"))
	rep.AddTable(t)
	return rep
}
