package experiments

import (
	"context"
	"fmt"

	"memcon/internal/parallel"
	"memcon/internal/pareto"
	"memcon/internal/report"
	"memcon/internal/stats"
	"memcon/internal/workload"
)

// representativeApps are the three workloads Figs. 7 and 8 plot.
var representativeApps = []string{"ACBrotherHood", "Netflix", "SystemMgt"}

// cilGrid is the current-interval-length axis of Figs. 11 and 12 (ms).
var cilGrid = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768}

// fig7App is one application's interval distribution.
type fig7App struct {
	name string
	hist *stats.LogHistogram
	// under1ms and over1024ms are the fractions of writes with interval
	// below 1 ms and above 1024 ms.
	under1ms, over1024ms float64
}

// runFig7 computes write-interval distributions for the representative
// workloads, one independent work unit per workload. The histograms
// render as prose; the bucket counts also appear in machine shape as
// data-only tables.
func runFig7(ctx context.Context, req Request, rt Runtime) (*report.Report, error) {
	apps, err := parallel.Map(ctx, len(representativeApps), rt.Workers, func(i int) (fig7App, error) {
		name := representativeApps[i]
		app, err := workload.AppByName(name)
		if err != nil {
			return fig7App{}, err
		}
		h := stats.NewLogHistogram(1, 16) // 1 ms .. 32768 ms
		var under, over, n float64
		app.EachInterval(req.Seed, req.Scale, true, func(iv float64) {
			h.Add(iv)
			n++
			if iv < 1 {
				under++
			}
			if iv > 1024 {
				over++
			}
		})
		return fig7App{
			name: name, hist: h,
			under1ms:   under / n,
			over1024ms: over / n,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	rep := report.New()
	rep.Textf("Fig. 7 — distribution of write intervals\n")
	for _, a := range apps {
		rep.Textf("\n%s  (<1ms: %s, >1024ms: %s of writes)\n",
			a.name, pct2(a.under1ms), pct2(a.over1024ms))
		rep.Textf("%s", a.hist.String())
	}
	at := report.NewTable("apps",
		report.CStr("application", ""),
		report.CFloat("under_1ms", "", "fraction"),
		report.CFloat("over_1024ms", "", "fraction"))
	bt := report.NewTable("buckets",
		report.CStr("application", ""),
		report.CFloat("bucket_low_ms", "", "ms"),
		report.CInt("count", "", "writes"))
	for _, a := range apps {
		at.Add(report.S(a.name), report.Fv(a.under1ms), report.Fv(a.over1024ms))
		h := a.hist
		bt.Add(report.S(a.name), report.Fv(0), report.I(h.Underflow()))
		for i := 0; i < h.Buckets; i++ {
			bt.Add(report.S(a.name), report.Fv(h.BucketLow(i)), report.I(h.Count(i)))
		}
		bt.Add(report.S(a.name), report.Fv(h.BucketLow(h.Buckets)), report.I(h.Overflow()))
	}
	rep.AddDataTable(at)
	rep.AddDataTable(bt)
	return rep, nil
}

// runFig8 fits Pareto distributions to the interval tails (>= 1 ms, the
// plotted range) of the representative workloads.
func runFig8(ctx context.Context, req Request, rt Runtime) (*report.Report, error) {
	fits, err := parallel.Map(ctx, len(representativeApps), rt.Workers, func(i int) (pareto.Fit, error) {
		name := representativeApps[i]
		app, err := workload.AppByName(name)
		if err != nil {
			return pareto.Fit{}, err
		}
		// Only the plotted range is kept: FitCCDFTail's lowest default
		// threshold is 1 ms, so it never reads a shorter interval.
		var ivs []float64
		app.EachInterval(req.Seed, req.Scale, false, func(iv float64) {
			if iv >= 1 {
				ivs = append(ivs, iv)
			}
		})
		// Fit the heavy tail with automatic threshold selection: the
		// interval body mixes in light-tailed hot-page pauses, exactly
		// like real bus traces mix cache-eviction churn with idle tails.
		fit, err := pareto.FitCCDFTail(ivs, nil, 64)
		if err != nil {
			return pareto.Fit{}, fmt.Errorf("experiments: fitting %s: %w", name, err)
		}
		return fit, nil
	})
	if err != nil {
		return nil, err
	}
	rep := report.New()
	rep.Textf("Fig. 8 — Pareto distribution of write intervals (P(X>x) = k*x^-alpha)\n\n")
	t := report.NewTable("fits",
		report.CStr("application", ""),
		report.CFloat("alpha", "", ""),
		report.CFloat("xm_ms", "xm (ms)", "ms"),
		report.CFloat("r2", "R^2", ""))
	for i, fit := range fits {
		t.Add(report.S(representativeApps[i]),
			report.F(fit.Dist.Alpha, fmt.Sprintf("%.3f", fit.Dist.Alpha)),
			report.F(fit.Dist.Xm, fmt.Sprintf("%.2f", fit.Dist.Xm)),
			report.F(fit.R2, fmt.Sprintf("%.4f", fit.R2)))
	}
	rep.AddTable(t)
	rep.Textf("\npaper reports R^2 of 0.94/0.94/0.99 for its three workloads\n")
	return rep, nil
}

// runFig9 computes, for all twelve workloads, the execution-time share
// of long write intervals: the fraction of total write-interval time
// spent in intervals >= 1024 ms.
func runFig9(ctx context.Context, req Request, rt Runtime) (*report.Report, error) {
	apps := workload.Apps()
	shares, err := parallel.Map(ctx, len(apps), rt.Workers, func(i int) (float64, error) {
		var total, long float64
		apps[i].EachInterval(req.Seed, req.Scale, true, func(iv float64) {
			total += iv
			if iv >= 1024 {
				long += iv
			}
		})
		share := 0.0
		if total > 0 {
			share = long / total
		}
		return share, nil
	})
	if err != nil {
		return nil, err
	}
	var sum float64
	for _, share := range shares {
		sum += share
	}
	average := sum / float64(len(shares))

	rep := report.New()
	rep.Textf("Fig. 9 — execution time dominated by long write intervals (>= 1024 ms)\n\n")
	t := report.NewTable("rows",
		report.CStr("application", ""),
		report.CFloat("long_share", ">=1024ms share", "fraction"),
		report.CFloat("short_share", "<1024ms share", "fraction"))
	add := func(name string, share float64) {
		t.Add(report.S(name), report.F(share, pct(share)), report.F(1-share, pct(1-share)))
	}
	for i, share := range shares {
		add(apps[i].Name, share)
	}
	add("AVERAGE", average)
	rep.AddTable(t)
	rep.Textf("\npaper: write intervals >= 1024 ms constitute 89.5%% of total write-interval time on average\n")
	return rep, nil
}

// cilSeries builds the "series" table Figs. 11 and 12 share: one row per
// cilGrid point, one column per workload, each cell metric(fold, j) of
// that workload's intervals folded over the whole grid in one pass,
// displayed by show.
func cilSeries(ctx context.Context, req Request, rt Runtime, unit string,
	metric func(f *pareto.CILFold, j int) float64, show func(float64) string) (*report.Table, error) {
	apps := workload.Apps()
	rows, err := parallel.Map(ctx, len(apps), rt.Workers, func(i int) ([]float64, error) {
		f := pareto.NewCILFold(cilGrid, 1024)
		apps[i].EachInterval(req.Seed, req.Scale, true, f.Add)
		row := make([]float64, len(cilGrid))
		for j := range cilGrid {
			row[j] = metric(f, j)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	cols := []report.Column{report.CFloat("cil_ms", "CIL (ms)", "ms")}
	for _, app := range apps {
		cols = append(cols, report.CFloat(app.Name, app.Name, unit))
	}
	t := report.NewTable("series", cols...)
	for i, c := range cilGrid {
		row := []report.Cell{report.F(c, fmt.Sprintf("%.0f", c))}
		for a := range apps {
			row = append(row, report.F(rows[a][i], show(rows[a][i])))
		}
		t.Add(row...)
	}
	return t, nil
}

// runFig11 computes the decreasing-hazard-rate conditionals for all
// workloads: P(remaining interval > 1024 ms) as a function of the
// elapsed (current) interval length.
func runFig11(ctx context.Context, req Request, rt Runtime) (*report.Report, error) {
	t, err := cilSeries(ctx, req, rt, "probability", (*pareto.CILFold).ConditionalExceed,
		func(p float64) string { return fmt.Sprintf("%.2f", p) })
	if err != nil {
		return nil, err
	}
	rep := report.New()
	rep.Textf("Fig. 11 — P(RIL > 1024 ms) as a function of CIL\n\n")
	rep.AddTable(t)
	return rep, nil
}

// runFig12 computes prediction coverage of write-interval time as a
// function of CIL for all workloads.
func runFig12(ctx context.Context, req Request, rt Runtime) (*report.Report, error) {
	t, err := cilSeries(ctx, req, rt, "fraction", (*pareto.CILFold).Coverage, pct)
	if err != nil {
		return nil, err
	}
	rep := report.New()
	rep.Textf("Fig. 12 — coverage of write-interval time vs CIL\n\n")
	rep.AddTable(t)
	return rep, nil
}

// runFig19 halves the ACBrotherhood intervals (emulating higher cache
// pressure) and compares P(RIL > 1024 ms) at CIL 512, 1024 and 2048 ms,
// and the >= 1024 ms count fractions, with the full intervals.
func runFig19(ctx context.Context, req Request, rt Runtime) (*report.Report, error) {
	app, err := workload.AppByName("ACBrotherHood")
	if err != nil {
		return nil, err
	}
	tr := app.Generate(req.Seed, req.Scale)
	half := tr.HalveIntervals()
	cils := []float64{512, 1024, 2048}
	// sweep folds one interval set over the CILs and counts its
	// >= 1024 ms share in the same pass.
	sweep := func(ivs []float64) (*pareto.CILFold, float64) {
		f := pareto.NewCILFold(cils, 1024)
		var over, n float64
		for _, iv := range ivs {
			f.Add(iv)
			n++
			if iv >= 1024 {
				over++
			}
		}
		if n == 0 {
			return f, 0
		}
		return f, over / n
	}
	full, fullShare := sweep(tr.Intervals(true))
	halved, halfShare := sweep(half.Intervals(true))

	rep := report.New()
	rep.Textf("Fig. 19 — sensitivity to halved write intervals (%s)\n\n", tr.Name)
	t := report.NewTable("series",
		report.CFloat("cil_ms", "CIL (ms)", "ms"),
		report.CFloat("full", "P(RIL>1024) full", "probability"),
		report.CFloat("halved", "P(RIL>1024) halved", "probability"))
	for i, c := range cils {
		pf, ph := full.ConditionalExceed(i), halved.ConditionalExceed(i)
		t.Add(report.F(c, fmt.Sprintf("%.0f", c)),
			report.F(pf, fmt.Sprintf("%.2f", pf)),
			report.F(ph, fmt.Sprintf("%.2f", ph)))
	}
	rep.AddTable(t)
	rep.Textf("\nintervals >= 1024 ms by count: full %s, halved %s\n",
		pct2(fullShare), pct2(halfShare))
	rep.Textf("paper: halving the intervals does not significantly change P(RIL > 1024 ms)\n")
	st := report.NewTable("summary",
		report.CFloat("full_share", "", "fraction"),
		report.CFloat("half_share", "", "fraction"))
	st.Add(report.Fv(fullShare), report.Fv(halfShare))
	rep.AddDataTable(st)
	return rep, nil
}
