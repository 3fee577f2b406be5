package experiments

import (
	"context"
	"fmt"

	"memcon/internal/parallel"
	"memcon/internal/pareto"
	"memcon/internal/report"
	"memcon/internal/stats"
	"memcon/internal/trace"
	"memcon/internal/workload"
)

// representativeApps are the three workloads Figs. 7 and 8 plot.
var representativeApps = []string{"ACBrotherHood", "Netflix", "SystemMgt"}

// cilGrid is the current-interval-length axis of Figs. 11 and 12 (ms).
var cilGrid = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768}

// genTrace generates one application's trace under the options.
func genTrace(name string, req Request) (*trace.Trace, error) {
	app, err := workload.AppByName(name)
	if err != nil {
		return nil, err
	}
	return app.Generate(req.Seed, req.Scale), nil
}

// Fig7App is one application's interval distribution.
type Fig7App struct {
	Name string
	Hist *stats.LogHistogram
	// Under1ms is the fraction of writes with interval below 1 ms.
	Under1ms float64
	// Over1024ms is the fraction of writes with interval above 1024 ms.
	Over1024ms float64
}

// Fig7Result reproduces Fig. 7.
type Fig7Result struct {
	resultMeta
	Apps []Fig7App
}

// RunFig7 computes write-interval distributions for the representative
// workloads, one independent work unit per workload.
func RunFig7(ctx context.Context, req Request, rt Runtime) (Result, error) {
	apps, err := parallel.Map(ctx, len(representativeApps), rt.Workers, func(i int) (Fig7App, error) {
		name := representativeApps[i]
		tr, err := genTrace(name, req)
		if err != nil {
			return Fig7App{}, err
		}
		h := stats.NewLogHistogram(1, 16) // 1 ms .. 32768 ms
		var under, over, n float64
		for _, iv := range tr.Intervals(true) {
			h.Add(iv)
			n++
			if iv < 1 {
				under++
			}
			if iv > 1024 {
				over++
			}
		}
		return Fig7App{
			Name: name, Hist: h,
			Under1ms:   under / n,
			Over1024ms: over / n,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig7Result{Apps: apps}, nil
}

// Report builds the Fig. 7 document. The histograms render as prose
// (byte-identical to the pre-typed output); the bucket counts also
// appear in machine shape as data-only tables.
func (r *Fig7Result) Report() *report.Report {
	rep := report.New(r.provenance())
	rep.Textf("Fig. 7 — distribution of write intervals\n")
	for _, a := range r.Apps {
		rep.Textf("\n%s  (<1ms: %s, >1024ms: %s of writes)\n",
			a.Name, pct2(a.Under1ms), pct2(a.Over1024ms))
		rep.Textf("%s", a.Hist.String())
	}
	at := report.NewTable("apps",
		report.CStr("application", ""),
		report.CFloat("under_1ms", "", "fraction"),
		report.CFloat("over_1024ms", "", "fraction"))
	bt := report.NewTable("buckets",
		report.CStr("application", ""),
		report.CFloat("bucket_low_ms", "", "ms"),
		report.CInt("count", "", "writes"))
	for _, a := range r.Apps {
		at.Add(report.S(a.Name), report.Fv(a.Under1ms), report.Fv(a.Over1024ms))
		h := a.Hist
		bt.Add(report.S(a.Name), report.Fv(0), report.I(h.Underflow()))
		for i := 0; i < h.Buckets; i++ {
			bt.Add(report.S(a.Name), report.Fv(h.BucketLow(i)), report.I(h.Count(i)))
		}
		bt.Add(report.S(a.Name), report.Fv(h.BucketLow(h.Buckets)), report.I(h.Overflow()))
	}
	rep.AddDataTable(at)
	rep.AddDataTable(bt)
	return rep
}

// Fig8App is one application's Pareto fit.
type Fig8App struct {
	Name string
	Fit  pareto.Fit
}

// Fig8Result reproduces Fig. 8.
type Fig8Result struct {
	resultMeta
	Apps []Fig8App
}

// RunFig8 fits Pareto distributions to the interval tails (>= 1 ms, the
// plotted range) of the representative workloads.
func RunFig8(ctx context.Context, req Request, rt Runtime) (Result, error) {
	apps, err := parallel.Map(ctx, len(representativeApps), rt.Workers, func(i int) (Fig8App, error) {
		name := representativeApps[i]
		tr, err := genTrace(name, req)
		if err != nil {
			return Fig8App{}, err
		}
		// Fit the heavy tail with automatic threshold selection: the
		// interval body mixes in light-tailed hot-page pauses, exactly
		// like real bus traces mix cache-eviction churn with idle tails.
		fit, err := pareto.FitCCDFTail(tr.Intervals(false), nil, 64)
		if err != nil {
			return Fig8App{}, fmt.Errorf("experiments: fitting %s: %w", name, err)
		}
		return Fig8App{Name: name, Fit: fit}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig8Result{Apps: apps}, nil
}

// Report builds the Fig. 8 document.
func (r *Fig8Result) Report() *report.Report {
	rep := report.New(r.provenance())
	rep.Textf("Fig. 8 — Pareto distribution of write intervals (P(X>x) = k*x^-alpha)\n\n")
	t := report.NewTable("fits",
		report.CStr("application", ""),
		report.CFloat("alpha", "", ""),
		report.CFloat("xm_ms", "xm (ms)", "ms"),
		report.CFloat("r2", "R^2", ""))
	for _, a := range r.Apps {
		t.Add(report.S(a.Name),
			report.F(a.Fit.Dist.Alpha, fmt.Sprintf("%.3f", a.Fit.Dist.Alpha)),
			report.F(a.Fit.Dist.Xm, fmt.Sprintf("%.2f", a.Fit.Dist.Xm)),
			report.F(a.Fit.R2, fmt.Sprintf("%.4f", a.Fit.R2)))
	}
	rep.AddTable(t)
	rep.Textf("\npaper reports R^2 of 0.94/0.94/0.99 for its three workloads\n")
	return rep
}

// Fig9Row is one application's long-interval time share.
type Fig9Row struct {
	Name string
	// LongShare is the fraction of total write-interval time spent in
	// intervals >= 1024 ms.
	LongShare float64
}

// Fig9Result reproduces Fig. 9.
type Fig9Result struct {
	resultMeta
	Rows    []Fig9Row
	Average float64
}

// RunFig9 computes the execution-time share of long write intervals for
// all twelve workloads.
func RunFig9(ctx context.Context, req Request, rt Runtime) (Result, error) {
	apps := workload.Apps()
	rows, err := parallel.Map(ctx, len(apps), rt.Workers, func(i int) (Fig9Row, error) {
		tr := apps[i].Generate(req.Seed, req.Scale)
		var total, long float64
		for _, iv := range tr.Intervals(true) {
			total += iv
			if iv >= 1024 {
				long += iv
			}
		}
		share := 0.0
		if total > 0 {
			share = long / total
		}
		return Fig9Row{Name: apps[i].Name, LongShare: share}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig9Result{Rows: rows}
	var sum float64
	for _, row := range rows {
		sum += row.LongShare
	}
	res.Average = sum / float64(len(res.Rows))
	return res, nil
}

// Report builds the Fig. 9 document.
func (r *Fig9Result) Report() *report.Report {
	rep := report.New(r.provenance())
	rep.Textf("Fig. 9 — execution time dominated by long write intervals (>= 1024 ms)\n\n")
	t := report.NewTable("rows",
		report.CStr("application", ""),
		report.CFloat("long_share", ">=1024ms share", "fraction"),
		report.CFloat("short_share", "<1024ms share", "fraction"))
	add := func(name string, share float64) {
		t.Add(report.S(name), report.F(share, pct(share)), report.F(1-share, pct(1-share)))
	}
	for _, row := range r.Rows {
		add(row.Name, row.LongShare)
	}
	add("AVERAGE", r.Average)
	rep.AddTable(t)
	rep.Textf("\npaper: write intervals >= 1024 ms constitute 89.5%% of total write-interval time on average\n")
	return rep
}

// Fig11Result reproduces Fig. 11: P(remaining interval > 1024 ms) as a
// function of the elapsed (current) interval length.
type Fig11Result struct {
	resultMeta
	CILs []float64
	// P[app][i] is the conditional probability at CILs[i].
	Apps []string
	P    [][]float64
}

// RunFig11 computes the decreasing-hazard-rate conditionals for all
// workloads.
func RunFig11(ctx context.Context, req Request, rt Runtime) (Result, error) {
	apps := workload.Apps()
	rows, err := parallel.Map(ctx, len(apps), rt.Workers, func(i int) ([]float64, error) {
		tr := apps[i].Generate(req.Seed, req.Scale)
		ivs := tr.Intervals(true)
		row := make([]float64, len(cilGrid))
		for j, c := range cilGrid {
			row[j] = pareto.ConditionalExceedEmpirical(ivs, c, 1024)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig11Result{CILs: cilGrid, P: rows}
	for _, app := range apps {
		res.Apps = append(res.Apps, app.Name)
	}
	return res, nil
}

// Report builds the Fig. 11 document: one column per application, as
// the pre-typed CSV export laid the series out.
func (r *Fig11Result) Report() *report.Report {
	rep := report.New(r.provenance())
	rep.Textf("Fig. 11 — P(RIL > 1024 ms) as a function of CIL\n\n")
	cols := []report.Column{report.CFloat("cil_ms", "CIL (ms)", "ms")}
	for _, app := range r.Apps {
		cols = append(cols, report.CFloat(app, app, "probability"))
	}
	t := report.NewTable("series", cols...)
	for i, c := range r.CILs {
		row := []report.Cell{report.F(c, fmt.Sprintf("%.0f", c))}
		for a := range r.Apps {
			row = append(row, report.F(r.P[a][i], fmt.Sprintf("%.2f", r.P[a][i])))
		}
		t.Add(row...)
	}
	rep.AddTable(t)
	return rep
}

// Fig12Result reproduces Fig. 12: coverage of write-interval time as a
// function of CIL.
type Fig12Result struct {
	resultMeta
	CILs     []float64
	Apps     []string
	Coverage [][]float64
}

// RunFig12 computes prediction coverage for all workloads.
func RunFig12(ctx context.Context, req Request, rt Runtime) (Result, error) {
	apps := workload.Apps()
	rows, err := parallel.Map(ctx, len(apps), rt.Workers, func(i int) ([]float64, error) {
		tr := apps[i].Generate(req.Seed, req.Scale)
		ivs := tr.Intervals(true)
		row := make([]float64, len(cilGrid))
		for j, c := range cilGrid {
			row[j] = pareto.CoverageAtCIL(ivs, c)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig12Result{CILs: cilGrid, Coverage: rows}
	for _, app := range apps {
		res.Apps = append(res.Apps, app.Name)
	}
	return res, nil
}

// Report builds the Fig. 12 document.
func (r *Fig12Result) Report() *report.Report {
	rep := report.New(r.provenance())
	rep.Textf("Fig. 12 — coverage of write-interval time vs CIL\n\n")
	cols := []report.Column{report.CFloat("cil_ms", "CIL (ms)", "ms")}
	for _, app := range r.Apps {
		cols = append(cols, report.CFloat(app, app, "fraction"))
	}
	t := report.NewTable("series", cols...)
	for i, c := range r.CILs {
		row := []report.Cell{report.F(c, fmt.Sprintf("%.0f", c))}
		for a := range r.Apps {
			row = append(row, report.F(r.Coverage[a][i], pct(r.Coverage[a][i])))
		}
		t.Add(row...)
	}
	rep.AddTable(t)
	return rep
}

// Fig19Result reproduces Fig. 19: the same interval statistics with all
// write intervals halved (emulating higher cache pressure).
type Fig19Result struct {
	resultMeta
	App string
	// Full/Half give P(RIL > 1024 ms) at CIL in {512, 1024, 2048} ms.
	CILs []float64
	Full []float64
	Half []float64
	// FullShare/HalfShare are the >=1024 ms count fractions.
	FullShare, HalfShare float64
}

// RunFig19 halves the ACBrotherhood intervals and compares.
func RunFig19(ctx context.Context, req Request, rt Runtime) (Result, error) {
	tr, err := genTrace("ACBrotherHood", req)
	if err != nil {
		return nil, err
	}
	half := tr.HalveIntervals()
	res := &Fig19Result{App: tr.Name, CILs: []float64{512, 1024, 2048}}
	fullIvs := tr.Intervals(true)
	halfIvs := half.Intervals(true)
	for _, c := range res.CILs {
		res.Full = append(res.Full, pareto.ConditionalExceedEmpirical(fullIvs, c, 1024))
		res.Half = append(res.Half, pareto.ConditionalExceedEmpirical(halfIvs, c, 1024))
	}
	count := func(ivs []float64) float64 {
		var over, n float64
		for _, iv := range ivs {
			n++
			if iv >= 1024 {
				over++
			}
		}
		if n == 0 {
			return 0
		}
		return over / n
	}
	res.FullShare = count(fullIvs)
	res.HalfShare = count(halfIvs)
	return res, nil
}

// Report builds the Fig. 19 document.
func (r *Fig19Result) Report() *report.Report {
	rep := report.New(r.provenance())
	rep.Textf("Fig. 19 — sensitivity to halved write intervals (%s)\n\n", r.App)
	t := report.NewTable("series",
		report.CFloat("cil_ms", "CIL (ms)", "ms"),
		report.CFloat("full", "P(RIL>1024) full", "probability"),
		report.CFloat("halved", "P(RIL>1024) halved", "probability"))
	for i, c := range r.CILs {
		t.Add(report.F(c, fmt.Sprintf("%.0f", c)),
			report.F(r.Full[i], fmt.Sprintf("%.2f", r.Full[i])),
			report.F(r.Half[i], fmt.Sprintf("%.2f", r.Half[i])))
	}
	rep.AddTable(t)
	rep.Textf("\nintervals >= 1024 ms by count: full %s, halved %s\n",
		pct2(r.FullShare), pct2(r.HalfShare))
	rep.Textf("paper: halving the intervals does not significantly change P(RIL > 1024 ms)\n")
	st := report.NewTable("summary",
		report.CFloat("full_share", "", "fraction"),
		report.CFloat("half_share", "", "fraction"))
	st.Add(report.Fv(r.FullShare), report.Fv(r.HalfShare))
	rep.AddDataTable(st)
	return rep
}
