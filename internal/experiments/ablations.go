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

func init() {
	registry["abl-buffer"] = entry{RunAblBuffer, "Ablation: PRIL write-buffer capacity (overflow -> HI-REF)", false}
	registry["abl-accel"] = entry{RunAblAccel, "Ablation: Copy-and-Compare acceleration (RowClone / in-DRAM compare)", false}
	registry["abl-pril"] = entry{RunAblPril, "Ablation: buffer-based vs bitmap PRIL implementation", false}
}

// ablTrace generates the reference workload for ablations.
func ablTrace(req Request) (*trace.Trace, error) {
	app, err := workload.AppByName("AdobePremiere")
	if err != nil {
		return nil, err
	}
	return app.Generate(req.Seed, req.Scale), nil
}

// AblBufferRow is one buffer-capacity point.
type AblBufferRow struct {
	Capacity  int
	Reduction float64
	Discards  int64
	Peak      int
}

// AblBufferResult sweeps PRIL's write-buffer capacity.
type AblBufferResult struct {
	resultMeta
	Rows []AblBufferRow
}

// RunAblBuffer sweeps the buffer capacity from unbounded down to
// starvation, measuring the refresh reduction lost to discards. The
// capacities run concurrently against one shared trace — core.Run
// only reads the trace, so the units share it without copies.
func RunAblBuffer(ctx context.Context, req Request, rt Runtime) (Result, error) {
	tr, err := ablTrace(req)
	if err != nil {
		return nil, err
	}
	capacities := []int{0, 4000, 1000, 200, 50, 8}
	rows, err := parallel.Map(ctx, len(capacities), rt.Workers, func(i int) (AblBufferRow, error) {
		cfg := core.DefaultConfig()
		cfg.BufferCap = capacities[i]
		rep, err := core.RunContext(ctx, tr, cfg, core.WithObserver(rt.Observer))
		if err != nil {
			return AblBufferRow{}, err
		}
		return AblBufferRow{
			Capacity:  capacities[i],
			Reduction: rep.RefreshReduction(),
			Discards:  rep.Pril.Discards,
			Peak:      rep.Pril.PeakBuffer,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &AblBufferResult{Rows: rows}, nil
}

// Report builds the buffer-ablation document.
func (r *AblBufferResult) Report() *report.Report {
	rep := report.New(r.provenance())
	rep.Textf("Ablation — PRIL write-buffer capacity\n\n")
	t := report.NewTable("rows",
		report.CInt("capacity", "", "entries"),
		report.CFloat("reduction", "", "fraction"),
		report.CInt("discards", "", ""),
		report.CInt("peak", "peak occupancy", "entries"))
	for _, row := range r.Rows {
		capCell := report.I(int64(row.Capacity))
		if row.Capacity == 0 {
			capCell = report.Id(0, "unbounded")
		}
		t.Add(capCell, report.F(row.Reduction, pct(row.Reduction)),
			report.I(row.Discards), report.I(int64(row.Peak)))
	}
	rep.AddTable(t)
	rep.Textf("\npaper sizes the buffer at ~4000 entries (§6.4); the sweep shows how much\nreduction survives under-provisioning (discarded pages stay at HI-REF)\n")
	return rep
}

// AblAccelRow is one acceleration variant.
type AblAccelRow struct {
	Accel            costmodel.Accel
	TestCost         dram.Nanoseconds
	MinWriteInterval dram.Nanoseconds
}

// AblAccelResult quantifies footnote 6's acceleration variants.
type AblAccelResult struct {
	resultMeta
	Rows []AblAccelRow
}

// RunAblAccel computes test cost and MinWriteInterval per acceleration.
func RunAblAccel(context.Context, Request, Runtime) (Result, error) {
	res := &AblAccelResult{}
	for _, a := range []costmodel.Accel{costmodel.NoAccel, costmodel.RowCloneCopy, costmodel.InDRAMCompare} {
		cfg, err := costmodel.NewAcceleratedConfig(costmodel.DefaultConfig(), a)
		if err != nil {
			return nil, err
		}
		mwi, err := cfg.MinWriteInterval()
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblAccelRow{Accel: a, TestCost: cfg.TestCost(), MinWriteInterval: mwi})
	}
	return res, nil
}

// Report builds the acceleration-ablation document.
func (r *AblAccelResult) Report() *report.Report {
	rep := report.New(r.provenance())
	rep.Textf("Ablation — Copy-and-Compare acceleration (paper footnote 6, future work)\n\n")
	t := report.NewTable("rows",
		report.CStr("variant", ""),
		report.CInt("test_cost_ns", "test cost", "ns"),
		report.CInt("min_write_interval_ms", "MinWriteInterval", "ms"))
	for _, row := range r.Rows {
		t.Add(report.S(row.Accel.String()),
			report.Id(int64(row.TestCost), fmt.Sprintf("%d ns", row.TestCost)),
			report.Id(int64(row.MinWriteInterval/dram.Millisecond), fmt.Sprintf("%d ms", row.MinWriteInterval/dram.Millisecond)))
	}
	rep.AddTable(t)
	rep.Textf("\nin-DRAM copy/compare (RowClone/LISA/PIM) shrinks the amortization threshold,\nletting MEMCON exploit shorter write intervals\n")
	return rep
}

// AblPrilResult compares the two PRIL implementations.
type AblPrilResult struct {
	resultMeta
	BufferPredictions int
	BitmapPredictions int
	Identical         bool
	BufferBits        int
	BitmapBits        int
}

// RunAblPril verifies that the bitmap implementation (future work:
// "cheaper implementations of PRIL") is prediction-equivalent to the
// buffer design and compares storage.
func RunAblPril(ctx context.Context, req Request, rt Runtime) (Result, error) {
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
	return &AblPrilResult{
		BufferPredictions: len(a),
		BitmapPredictions: len(b),
		Identical:         identical,
		BufferBits:        pril.StorageBitsBuffer(pages, 4000),
		BitmapBits:        pril.StorageBitsBitmap(pages),
	}, nil
}

// Report builds the PRIL-implementation ablation document.
func (r *AblPrilResult) Report() *report.Report {
	rep := report.New(r.provenance())
	rep.Textf("Ablation — PRIL implementation (buffer CAM vs bitmap scan)\n\n")
	t := report.NewTable("rows",
		report.CStr("implementation", ""),
		report.CInt("predictions", "", ""),
		report.CInt("storage_bits", "storage (bits)", "bits"))
	t.Add(report.S("write-buffer (paper)"), report.I(int64(r.BufferPredictions)), report.I(int64(r.BufferBits)))
	t.Add(report.S("bitmap (this repo)"), report.I(int64(r.BitmapPredictions)), report.I(int64(r.BitmapBits)))
	rep.AddTable(t)
	rep.Textf("\nprediction-equivalent: %v (bitmap eliminates the CAM at 2 extra bits/page)\n", r.Identical)
	st := report.NewTable("summary", report.CBool("identical", ""))
	st.Add(report.B(r.Identical))
	rep.AddDataTable(st)
	return rep
}
