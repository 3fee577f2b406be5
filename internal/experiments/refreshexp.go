package experiments

import (
	"context"
	"fmt"

	"memcon/internal/core"
	"memcon/internal/parallel"
	"memcon/internal/report"
	"memcon/internal/trace"
	"memcon/internal/workload"
)

// pril-driven refresh experiments: Figs. 14, 17, 18.

// cilChoices are the quantum lengths Figs. 14 and 17 evaluate (ms).
var cilChoices = []trace.Microseconds{512 * trace.Millisecond, 1024 * trace.Millisecond, 2048 * trace.Millisecond}

// quantumRows replays every workload's trace through the MEMCON engine
// at each cilChoices quantum, forwarding the run's observer, and
// tabulates metric of each replay's report into the "rows" table Figs.
// 14 and 17 share, one row per workload. Workloads are independent work
// units (each generates its own trace). The second return holds each
// workload's value at the 1024 ms quantum, in row order.
func quantumRows(ctx context.Context, req Request, rt Runtime, metric func(core.Report) float64) (*report.Table, []float64, error) {
	apps := workload.Apps()
	rows, err := parallel.Map(ctx, len(apps), rt.Workers, func(i int) ([]float64, error) {
		tr := apps[i].Generate(req.Seed, req.Scale)
		var row []float64
		for _, q := range cilChoices {
			cfg := core.DefaultConfig()
			cfg.Quantum = q
			rep, err := core.RunContext(ctx, tr, cfg, core.WithObserver(rt.Observer))
			if err != nil {
				return nil, err
			}
			row = append(row, metric(rep))
		}
		return row, nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable("rows",
		report.CStr("application", ""),
		report.CFloat("cil_512ms", "CIL 512ms", "fraction"),
		report.CFloat("cil_1024ms", "CIL 1024ms", "fraction"),
		report.CFloat("cil_2048ms", "CIL 2048ms", "fraction"))
	at1024 := make([]float64, len(rows))
	for i, row := range rows {
		t.Add(report.S(apps[i].Name),
			report.F(row[0], pct(row[0])),
			report.F(row[1], pct(row[1])),
			report.F(row[2], pct(row[2])))
		at1024[i] = row[1]
	}
	return t, at1024, nil
}

// RunFig14 measures MEMCON's refresh-operation reduction for all
// workloads at the three quantum lengths; the min/avg/max fold runs
// over the workloads at 1024 ms in app order.
func RunFig14(ctx context.Context, req Request, rt Runtime) (*report.Report, error) {
	t, at1024, err := quantumRows(ctx, req, rt, core.Report.RefreshReduction)
	if err != nil {
		return nil, err
	}
	const upperBound = 0.75
	minAt1024, maxAt1024 := 1.0, 0.0
	var sum float64
	for _, r1024 := range at1024 {
		sum += r1024
		if r1024 < minAt1024 {
			minAt1024 = r1024
		}
		if r1024 > maxAt1024 {
			maxAt1024 = r1024
		}
	}
	avgAt1024 := sum / float64(len(at1024))

	rep := report.New()
	rep.Textf("Fig. 14 — reduction in refresh count with MEMCON (baseline: 16 ms refresh)\n\n")
	t.Add(report.S("UPPER BOUND"),
		report.F(upperBound, pct(upperBound)),
		report.F(upperBound, pct(upperBound)),
		report.F(upperBound, pct(upperBound)))
	rep.AddTable(t)
	rep.Textf("\nreduction at CIL 1024 ms: avg %s, range %s - %s (paper: 64.7%% - 74.5%%)\n",
		pct(avgAt1024), pct(minAt1024), pct(maxAt1024))
	st := report.NewTable("summary",
		report.CFloat("avg_at_1024", "", "fraction"),
		report.CFloat("min_at_1024", "", "fraction"),
		report.CFloat("max_at_1024", "", "fraction"))
	st.Add(report.Fv(avgAt1024), report.Fv(minAt1024), report.Fv(maxAt1024))
	rep.AddDataTable(st)
	return rep, nil
}

// RunFig17 measures the fraction of execution time rows spend at LO-REF.
func RunFig17(ctx context.Context, req Request, rt Runtime) (*report.Report, error) {
	t, at1024, err := quantumRows(ctx, req, rt, core.Report.LoRefCoverage)
	if err != nil {
		return nil, err
	}
	var sum float64
	for _, c := range at1024 {
		sum += c
	}
	avgAt1024 := sum / float64(len(at1024))

	rep := report.New()
	rep.Textf("Fig. 17 — execution-time coverage of PRIL (time at LO-REF)\n\n")
	rep.AddTable(t)
	rep.Textf("\naverage coverage at CIL 1024 ms: %s (paper: ~95%%)\n", pct(avgAt1024))
	st := report.NewTable("summary", report.CFloat("avg_at_1024", "", "fraction"))
	st.Add(report.Fv(avgAt1024))
	rep.AddDataTable(st)
	return rep, nil
}

// fig18Row is one workload's refresh and testing time over the
// baseline's refresh time.
type fig18Row struct {
	// refresh is MEMCON refresh time; testCorrect and testMispred are
	// testing time of correct and of mispredicted or aborted tests.
	refresh, testCorrect, testMispred float64
}

// RunFig18 measures time spent on refresh and testing under MEMCON,
// normalized to baseline refresh time.
func RunFig18(ctx context.Context, req Request, rt Runtime) (*report.Report, error) {
	apps := workload.Apps()
	rows, err := parallel.Map(ctx, len(apps), rt.Workers, func(i int) (fig18Row, error) {
		tr := apps[i].Generate(req.Seed, req.Scale)
		cfg := core.DefaultConfig()
		cfg.Quantum = 1024 * trace.Millisecond
		rep, err := core.RunContext(ctx, tr, cfg, core.WithObserver(rt.Observer))
		if err != nil {
			return fig18Row{}, err
		}
		// Model the full module: the workload's written footprint is a
		// small slice of an 8 GB DIMM; the rest holds static content
		// that MEMCON tests once and keeps at LO-REF (§6.1). This is
		// what makes testing time minuscule against the module-wide
		// refresh bill in the paper's Fig. 18.
		rep = rep.WithReadOnlyRows(9*(tr.MaxPage()+1), cfg)
		base := rep.BaselineRefreshTimeNs()
		return fig18Row{
			refresh:     rep.RefreshTimeNs() / base,
			testCorrect: rep.TestingTimeCorrectNs / base,
			testMispred: rep.TestingTimeMispredNs / base,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var sum float64
	for _, row := range rows {
		sum += row.testCorrect + row.testMispred
	}
	avgTestingShare := sum / float64(len(rows))

	rep := report.New()
	rep.Textf("Fig. 18 — time on refresh and testing, normalized to baseline refresh time\n\n")
	t := report.NewTable("rows",
		report.CStr("application", ""),
		report.CFloat("refresh", "", "fraction"),
		report.CFloat("testing_correct", "testing (correct)", "fraction"),
		report.CFloat("testing_mispred", "testing (mispredicted)", "fraction"))
	for i, row := range rows {
		t.Add(report.S(apps[i].Name),
			report.F(row.refresh, pct(row.refresh)),
			report.F(row.testCorrect, fmt.Sprintf("%.4f%%", 100*row.testCorrect)),
			report.F(row.testMispred, fmt.Sprintf("%.4f%%", 100*row.testMispred)))
	}
	rep.AddTable(t)
	rep.Textf("\naverage testing time: %.4f%% of baseline refresh time (paper: ~0.01%%)\n",
		100*avgTestingShare)
	st := report.NewTable("summary", report.CFloat("avg_testing_share", "", "fraction"))
	st.Add(report.Fv(avgTestingShare))
	rep.AddDataTable(st)
	return rep, nil
}

// RunTable1 reproduces Table 1: the evaluated workload inventory.
func RunTable1(context.Context, Request, Runtime) (*report.Report, error) {
	rep := report.New()
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
	for _, a := range workload.Apps() {
		t.Add(report.S(a.Name), report.S(a.Type),
			report.F(a.DurationSec, fmt.Sprintf("%.1f", a.DurationSec)),
			report.F(a.MemGB, fmt.Sprintf("%.1f", a.MemGB)),
			report.I(int64(a.Threads)),
			report.I(int64(a.Pages)),
			report.F(a.IdleDist.Alpha, fmt.Sprintf("%.2f", a.IdleDist.Alpha)),
			report.F(a.IdleDist.Xm, fmt.Sprintf("%.0f", a.IdleDist.Xm)))
	}
	rep.AddTable(t)
	return rep, nil
}
