package experiments

import (
	"context"
	"fmt"

	"memcon/internal/core"
	"memcon/internal/costmodel"
	"memcon/internal/dram"
	"memcon/internal/parallel"
	"memcon/internal/pril"
	"memcon/internal/report"
	"memcon/internal/trace"
	"memcon/internal/workload"
)

// Ablations of the design choices DESIGN.md calls out. They are not
// paper artifacts; they quantify the sensitivity of MEMCON's headline
// metric (refresh reduction) to each knob, plus the effect of the
// footnote-6 test-acceleration variants the paper leaves as future
// work.

// ablTrace generates the reference workload for ablations.
func ablTrace(req Request) (*trace.Trace, error) {
	app, err := workload.AppByName("AdobePremiere")
	if err != nil {
		return nil, err
	}
	return app.Generate(req.Seed, req.Scale), nil
}

// runAblBuffer sweeps PRIL's write-buffer capacity from unbounded down
// to starvation, measuring the refresh reduction lost to discards. The
// capacities run concurrently against one shared trace — core.RunContext
// only reads the trace, so the units share it without copies.
func runAblBuffer(ctx context.Context, req Request, rt Runtime) (*report.Report, error) {
	tr, err := ablTrace(req)
	if err != nil {
		return nil, err
	}
	capacities := []int{0, 4000, 1000, 200, 50, 8}
	reps, err := parallel.Map(ctx, len(capacities), rt.Workers, func(i int) (core.Report, error) {
		cfg := core.DefaultConfig()
		cfg.BufferCap = capacities[i]
		return core.RunContext(ctx, tr, cfg, core.WithObserver(rt.Observer))
	})
	if err != nil {
		return nil, err
	}
	rep := report.New()
	rep.Textf("Ablation — PRIL write-buffer capacity\n\n")
	t := report.NewTable("rows",
		report.CInt("capacity", "", "entries"),
		report.CFloat("reduction", "", "fraction"),
		report.CInt("discards", "", ""),
		report.CInt("peak", "peak occupancy", "entries"))
	for i, r := range reps {
		capCell := report.I(int64(capacities[i]))
		if capacities[i] == 0 {
			capCell = report.Id(0, "unbounded")
		}
		reduction := r.RefreshReduction()
		t.Add(capCell, report.F(reduction, pct(reduction)),
			report.I(r.Pril.Discards), report.I(int64(r.Pril.PeakBuffer)))
	}
	rep.AddTable(t)
	rep.Textf("\npaper sizes the buffer at ~4000 entries (§6.4); the sweep shows how much\nreduction survives under-provisioning (discarded pages stay at HI-REF)\n")
	return rep, nil
}

// runAblAccel quantifies footnote 6's acceleration variants: test cost
// and MinWriteInterval per acceleration.
func runAblAccel(context.Context, Request, Runtime) (*report.Report, error) {
	rep := report.New()
	rep.Textf("Ablation — Copy-and-Compare acceleration (paper footnote 6, future work)\n\n")
	t := report.NewTable("rows",
		report.CStr("variant", ""),
		report.CInt("test_cost_ns", "test cost", "ns"),
		report.CInt("min_write_interval_ms", "MinWriteInterval", "ms"))
	variants := []struct {
		name string
		mode costmodel.TestMode
	}{
		{"baseline", costmodel.CopyCompare},
		{"rowclone-copy", costmodel.RowCloneCopy},
		{"in-dram-compare", costmodel.InDRAMCompare},
	}
	for _, v := range variants {
		cfg := costmodel.DefaultConfig()
		cfg.Mode = v.mode
		mwi, err := cfg.MinWriteInterval()
		if err != nil {
			return nil, err
		}
		testCost := cfg.TestCost()
		t.Add(report.S(v.name),
			report.Id(int64(testCost), fmt.Sprintf("%d ns", testCost)),
			report.Id(int64(mwi/dram.Millisecond), fmt.Sprintf("%d ms", mwi/dram.Millisecond)))
	}
	rep.AddTable(t)
	rep.Textf("\nin-DRAM copy/compare (RowClone/LISA/PIM) shrinks the amortization threshold,\nletting MEMCON exploit shorter write intervals\n")
	return rep, nil
}

// runAblPril verifies that the bitmap implementation (future work:
// "cheaper implementations of PRIL") is prediction-equivalent to the
// buffer design and compares storage.
func runAblPril(ctx context.Context, req Request, rt Runtime) (*report.Report, error) {
	tr, err := ablTrace(req)
	if err != nil {
		return nil, err
	}
	cfg := pril.Config{Quantum: 1024 * trace.Millisecond, NumPages: tr.MaxPage() + 1}
	a, _, err := pril.Run(tr, cfg)
	if err != nil {
		return nil, err
	}
	b, _, err := pril.RunBitmap(tr, cfg)
	if err != nil {
		return nil, err
	}
	identical := len(a) == len(b)
	if identical {
		seen := map[pril.Prediction]int{}
		for _, p := range a {
			seen[p]++
		}
		for _, p := range b {
			seen[p]--
		}
		for _, v := range seen {
			if v != 0 {
				identical = false
				break
			}
		}
	}
	pages := tr.MaxPage() + 1

	rep := report.New()
	rep.Textf("Ablation — PRIL implementation (buffer CAM vs bitmap scan)\n\n")
	t := report.NewTable("rows",
		report.CStr("implementation", ""),
		report.CInt("predictions", "", ""),
		report.CInt("storage_bits", "storage (bits)", "bits"))
	t.Add(report.S("write-buffer (paper)"), report.I(int64(len(a))), report.I(int64(pril.StorageBitsBuffer(pages, 4000))))
	t.Add(report.S("bitmap (this repo)"), report.I(int64(len(b))), report.I(int64(pril.StorageBitsBitmap(pages))))
	rep.AddTable(t)
	rep.Textf("\nprediction-equivalent: %v (bitmap eliminates the CAM at 2 extra bits/page)\n", identical)
	st := report.NewTable("summary", report.CBool("identical", ""))
	st.Add(report.B(identical))
	rep.AddDataTable(st)
	return rep, nil
}
