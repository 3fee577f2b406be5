package experiments

import (
	"context"
	"fmt"

	"memcon/internal/costmodel"
	"memcon/internal/dram"
	"memcon/internal/report"
)

// RunFig6 reproduces Fig. 6: the cost-benefit crossover
// (MinWriteInterval) for each test mode / LO-REF interval, and the
// accumulated-cost curve of the primary configuration (Read-and-Compare,
// 64 ms) sampled like the figure does. The curve is the primary table:
// the pre-typed CSV export emitted the accumulated-cost series, and the
// shared renderer keeps that header (time_ms,hiref_ns,memcon_ns).
func RunFig6(context.Context, Request, Runtime) (*report.Report, error) {
	rep := report.New()
	rep.Primary = "curve"
	rep.Textf("Fig. 6 — cost of testing vs aggressive refresh (per row)\n\n")
	t := report.NewTable("configs",
		report.CStr("test_mode", "test mode"),
		report.CInt("loref_ms", "LO-REF", "ms"),
		report.CInt("test_cost_ns", "test cost", "ns"),
		report.CInt("min_write_interval_ms", "MinWriteInterval", "ms"))
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
		testCost := cfg.TestCost()
		t.Add(report.S(cse.mode.String()),
			report.Id(int64(cse.loRef/dram.Millisecond), fmt.Sprintf("%d ms", cse.loRef/dram.Millisecond)),
			report.Id(int64(testCost), fmt.Sprintf("%d ns", testCost)),
			report.Id(int64(mwi/dram.Millisecond), fmt.Sprintf("%d ms", mwi/dram.Millisecond)))
	}
	rep.AddTable(t)
	rep.Textf("\naccumulated cost (Read and Compare, LO-REF 64 ms):\n")
	ct := report.NewTable("curve",
		report.CInt("time_ms", "time (ms)", "ms"),
		report.CInt("hiref_ns", "HI-REF (ns)", "ns"),
		report.CInt("memcon_ns", "MEMCON (ns)", "ns"))
	primary := costmodel.DefaultConfig()
	for _, p := range primary.Curve(1000*dram.Millisecond, 112*dram.Millisecond) {
		ct.Add(report.I(int64(p.Time/dram.Millisecond)),
			report.I(int64(p.HiRef)), report.I(int64(p.Memcon)))
	}
	rep.AddTable(ct)
	return rep, nil
}

// RunAppendix reports the latency building blocks (paper appendix). The
// value column mixes integer nanosecond cells with one float fraction —
// cells carry their own kinds, the column kind records the dominant
// one.
func RunAppendix(context.Context, Request, Runtime) (*report.Report, error) {
	cm := costmodel.DefaultConfig()
	readCompare := cm.TestCost()
	cm.Mode = costmodel.CopyCompare
	copyCompare := cm.TestCost()
	reserved := costmodel.CopyCompareReservedRows(512, 8, 262144)
	rep := report.New()
	rep.Textf("Appendix — DDR3-1600 cost building blocks\n\n")
	t := report.NewTable("costs",
		report.CStr("quantity", ""),
		report.CInt("value", "", "ns"),
		report.CStr("paper", ""))
	ns := func(v dram.Nanoseconds) report.Cell {
		return report.Id(int64(v), fmt.Sprintf("%d ns", v))
	}
	t.Add(report.S("row cycle (tRCD + 128*tCCD + tRP)"), ns(cm.Timing.RowCycle()), report.S("534 ns"))
	t.Add(report.S("refresh (tRAS + tRP)"), ns(cm.Timing.RefreshCost()), report.S("39 ns"))
	t.Add(report.S("Read and Compare (2 row reads)"), ns(readCompare), report.S("1068 ns"))
	t.Add(report.S("Copy and Compare (2 reads + 1 write)"), ns(copyCompare), report.S("1602 ns"))
	t.Add(report.S("Copy and Compare reserved capacity"), report.F(reserved, pct2(reserved)), report.S("1.56%"))
	rep.AddTable(t)
	return rep, nil
}
