package experiments

import (
	"context"
	"fmt"

	"memcon/internal/core"
	"memcon/internal/obs"
	"memcon/internal/parallel"
	"memcon/internal/report"
	"memcon/internal/trace"
	"memcon/internal/workload"
)

// pril-driven refresh experiments: Figs. 14, 17, 18.

// cilChoices are the quantum lengths Figs. 14 and 17 evaluate (ms).
var cilChoices = []trace.Microseconds{512 * trace.Millisecond, 1024 * trace.Millisecond, 2048 * trace.Millisecond}

// runEngineOn replays one generated trace through the MEMCON engine at
// the given quantum, forwarding the run's observer.
func runEngineOn(ctx context.Context, o obs.Observer, tr *trace.Trace, quantum trace.Microseconds) (core.Report, error) {
	cfg := core.DefaultConfig()
	cfg.Quantum = quantum
	return core.RunContext(ctx, tr, cfg, core.WithObserver(o))
}

// Fig14Row is one application's refresh reduction per CIL.
type Fig14Row struct {
	Name string
	// Reduction[i] is the refresh reduction at cilChoices[i].
	Reduction []float64
}

// Fig14Result reproduces Fig. 14.
type Fig14Result struct {
	resultMeta
	Rows       []Fig14Row
	UpperBound float64
	// AvgAt1024 is the mean reduction at the 1024 ms quantum.
	AvgAt1024 float64
	MinAt1024 float64
	MaxAt1024 float64
}

// RunFig14 measures MEMCON's refresh-operation reduction for all
// workloads at the three quantum lengths. Apps are independent work
// units (each generates its own trace); the min/avg/max fold runs over
// the fanned-in rows in app order.
func RunFig14(ctx context.Context, req Request, rt Runtime) (Result, error) {
	apps := workload.Apps()
	rows, err := parallel.Map(ctx, len(apps), rt.Workers, func(i int) (Fig14Row, error) {
		tr := apps[i].Generate(req.Seed, req.Scale)
		row := Fig14Row{Name: apps[i].Name}
		for _, q := range cilChoices {
			rep, err := runEngineOn(ctx, rt.Observer, tr, q)
			if err != nil {
				return Fig14Row{}, err
			}
			row.Reduction = append(row.Reduction, rep.RefreshReduction())
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig14Result{UpperBound: 0.75, MinAt1024: 1, Rows: rows}
	var sum float64
	for _, row := range rows {
		r1024 := row.Reduction[1]
		sum += r1024
		if r1024 < res.MinAt1024 {
			res.MinAt1024 = r1024
		}
		if r1024 > res.MaxAt1024 {
			res.MaxAt1024 = r1024
		}
	}
	res.AvgAt1024 = sum / float64(len(res.Rows))
	return res, nil
}

// Report builds the Fig. 14 document.
func (r *Fig14Result) Report() *report.Report {
	rep := report.New(r.provenance())
	rep.Textf("Fig. 14 — reduction in refresh count with MEMCON (baseline: 16 ms refresh)\n\n")
	t := report.NewTable("rows",
		report.CStr("application", ""),
		report.CFloat("cil_512ms", "CIL 512ms", "fraction"),
		report.CFloat("cil_1024ms", "CIL 1024ms", "fraction"),
		report.CFloat("cil_2048ms", "CIL 2048ms", "fraction"))
	for _, row := range r.Rows {
		t.Add(report.S(row.Name),
			report.F(row.Reduction[0], pct(row.Reduction[0])),
			report.F(row.Reduction[1], pct(row.Reduction[1])),
			report.F(row.Reduction[2], pct(row.Reduction[2])))
	}
	t.Add(report.S("UPPER BOUND"),
		report.F(r.UpperBound, pct(r.UpperBound)),
		report.F(r.UpperBound, pct(r.UpperBound)),
		report.F(r.UpperBound, pct(r.UpperBound)))
	rep.AddTable(t)
	rep.Textf("\nreduction at CIL 1024 ms: avg %s, range %s - %s (paper: 64.7%% - 74.5%%)\n",
		pct(r.AvgAt1024), pct(r.MinAt1024), pct(r.MaxAt1024))
	st := report.NewTable("summary",
		report.CFloat("avg_at_1024", "", "fraction"),
		report.CFloat("min_at_1024", "", "fraction"),
		report.CFloat("max_at_1024", "", "fraction"))
	st.Add(report.Fv(r.AvgAt1024), report.Fv(r.MinAt1024), report.Fv(r.MaxAt1024))
	rep.AddDataTable(st)
	return rep
}

// Fig17Row is one application's LO-REF coverage per CIL.
type Fig17Row struct {
	Name     string
	Coverage []float64
}

// Fig17Result reproduces Fig. 17.
type Fig17Result struct {
	resultMeta
	Rows []Fig17Row
	// AvgAt1024 is the mean coverage at the 1024 ms quantum.
	AvgAt1024 float64
}

// RunFig17 measures the fraction of execution time rows spend at LO-REF.
func RunFig17(ctx context.Context, req Request, rt Runtime) (Result, error) {
	apps := workload.Apps()
	rows, err := parallel.Map(ctx, len(apps), rt.Workers, func(i int) (Fig17Row, error) {
		tr := apps[i].Generate(req.Seed, req.Scale)
		row := Fig17Row{Name: apps[i].Name}
		for _, q := range cilChoices {
			rep, err := runEngineOn(ctx, rt.Observer, tr, q)
			if err != nil {
				return Fig17Row{}, err
			}
			row.Coverage = append(row.Coverage, rep.LoRefCoverage())
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig17Result{Rows: rows}
	var sum float64
	for _, row := range rows {
		sum += row.Coverage[1]
	}
	res.AvgAt1024 = sum / float64(len(res.Rows))
	return res, nil
}

// Report builds the Fig. 17 document.
func (r *Fig17Result) Report() *report.Report {
	rep := report.New(r.provenance())
	rep.Textf("Fig. 17 — execution-time coverage of PRIL (time at LO-REF)\n\n")
	t := report.NewTable("rows",
		report.CStr("application", ""),
		report.CFloat("cil_512ms", "CIL 512ms", "fraction"),
		report.CFloat("cil_1024ms", "CIL 1024ms", "fraction"),
		report.CFloat("cil_2048ms", "CIL 2048ms", "fraction"))
	for _, row := range r.Rows {
		t.Add(report.S(row.Name),
			report.F(row.Coverage[0], pct(row.Coverage[0])),
			report.F(row.Coverage[1], pct(row.Coverage[1])),
			report.F(row.Coverage[2], pct(row.Coverage[2])))
	}
	rep.AddTable(t)
	rep.Textf("\naverage coverage at CIL 1024 ms: %s (paper: ~95%%)\n", pct(r.AvgAt1024))
	st := report.NewTable("summary", report.CFloat("avg_at_1024", "", "fraction"))
	st.Add(report.Fv(r.AvgAt1024))
	rep.AddDataTable(st)
	return rep
}

// Fig18Row is one application's refresh+testing time, normalized to the
// baseline's refresh time.
type Fig18Row struct {
	Name string
	// RefreshShare is MEMCON refresh time / baseline refresh time.
	RefreshShare float64
	// TestCorrectShare and TestMispredShare are testing time (correct /
	// mispredicted+aborted) over baseline refresh time.
	TestCorrectShare float64
	TestMispredShare float64
}

// Fig18Result reproduces Fig. 18.
type Fig18Result struct {
	resultMeta
	Rows []Fig18Row
	// AvgTestingShare is the mean total testing share.
	AvgTestingShare float64
}

// RunFig18 measures time spent on refresh and testing under MEMCON,
// normalized to baseline refresh time.
func RunFig18(ctx context.Context, req Request, rt Runtime) (Result, error) {
	apps := workload.Apps()
	rows, err := parallel.Map(ctx, len(apps), rt.Workers, func(i int) (Fig18Row, error) {
		tr := apps[i].Generate(req.Seed, req.Scale)
		cfg := core.DefaultConfig()
		cfg.Quantum = 1024 * trace.Millisecond
		// Model the full module: the workload's written footprint is a
		// small slice of an 8 GB DIMM; the rest holds static content
		// that MEMCON tests once and keeps at LO-REF (§6.1). This is
		// what makes testing time minuscule against the module-wide
		// refresh bill in the paper's Fig. 18.
		cfg.ReadOnlyRows = 9 * (tr.MaxPage() + 1)
		rep, err := core.RunContext(ctx, tr, cfg, core.WithObserver(rt.Observer))
		if err != nil {
			return Fig18Row{}, err
		}
		base := rep.BaselineRefreshTimeNs()
		refreshNs := rep.RefreshOps * 39 // tRAS+tRP per op
		return Fig18Row{
			Name:             apps[i].Name,
			RefreshShare:     refreshNs / base,
			TestCorrectShare: rep.TestingTimeCorrectNs / base,
			TestMispredShare: rep.TestingTimeMispredNs / base,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig18Result{Rows: rows}
	var sum float64
	for _, row := range rows {
		sum += row.TestCorrectShare + row.TestMispredShare
	}
	res.AvgTestingShare = sum / float64(len(res.Rows))
	return res, nil
}

// Report builds the Fig. 18 document.
func (r *Fig18Result) Report() *report.Report {
	rep := report.New(r.provenance())
	rep.Textf("Fig. 18 — time on refresh and testing, normalized to baseline refresh time\n\n")
	t := report.NewTable("rows",
		report.CStr("application", ""),
		report.CFloat("refresh", "", "fraction"),
		report.CFloat("testing_correct", "testing (correct)", "fraction"),
		report.CFloat("testing_mispred", "testing (mispredicted)", "fraction"))
	for _, row := range r.Rows {
		t.Add(report.S(row.Name),
			report.F(row.RefreshShare, pct(row.RefreshShare)),
			report.F(row.TestCorrectShare, fmt.Sprintf("%.4f%%", 100*row.TestCorrectShare)),
			report.F(row.TestMispredShare, fmt.Sprintf("%.4f%%", 100*row.TestMispredShare)))
	}
	rep.AddTable(t)
	rep.Textf("\naverage testing time: %.4f%% of baseline refresh time (paper: ~0.01%%)\n",
		100*r.AvgTestingShare)
	st := report.NewTable("summary", report.CFloat("avg_testing_share", "", "fraction"))
	st.Add(report.Fv(r.AvgTestingShare))
	rep.AddDataTable(st)
	return rep
}

// Table1Result reproduces Table 1: the evaluated workload inventory.
type Table1Result struct {
	resultMeta
	Apps []workload.AppSpec
}

// RunTable1 returns the workload table.
func RunTable1(context.Context, Request, Runtime) (Result, error) {
	return &Table1Result{Apps: workload.Apps()}, nil
}

// Report builds the Table 1 document.
func (r *Table1Result) Report() *report.Report {
	rep := report.New(r.provenance())
	rep.Textf("Table 1 — evaluated long-running workloads (synthetic analogues)\n\n")
	t := report.NewTable("apps",
		report.CStr("application", ""),
		report.CStr("type", ""),
		report.CFloat("time_s", "time (s)", "s"),
		report.CFloat("mem_gb", "mem (GB)", "GB"),
		report.CInt("threads", "", ""),
		report.CInt("pages", "", ""),
		report.CFloat("pareto_alpha", "pareto alpha", ""),
		report.CFloat("xm_ms", "xm (ms)", "ms"))
	for _, a := range r.Apps {
		t.Add(report.S(a.Name), report.S(a.Type),
			report.F(a.DurationSec, fmt.Sprintf("%.1f", a.DurationSec)),
			report.F(a.MemGB, fmt.Sprintf("%.1f", a.MemGB)),
			report.I(int64(a.Threads)),
			report.I(int64(a.Pages)),
			report.F(a.IdleDist.Alpha, fmt.Sprintf("%.2f", a.IdleDist.Alpha)),
			report.F(a.IdleDist.Xm, fmt.Sprintf("%.0f", a.IdleDist.Xm)))
	}
	rep.AddTable(t)
	return rep
}
