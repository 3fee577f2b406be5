package experiments

import (
	"context"
	"fmt"

	"memcon/internal/dram"
	"memcon/internal/memctrl"
	"memcon/internal/parallel"
	"memcon/internal/report"
	"memcon/internal/sim"
	"memcon/internal/stats"
	"memcon/internal/workload"
)

// densities are the chip capacities of the Fig. 15/16 sweeps.
var densities = []dram.Density{dram.Density8Gb, dram.Density16Gb, dram.Density32Gb}

// baselineMem returns the aggressive-baseline memory configuration: all
// rows at a 16 ms refresh window.
func baselineMem(d dram.Density, seed int64) memctrl.Config {
	cfg := memctrl.DefaultConfig()
	cfg.Density = d
	cfg.Seed = seed
	// The evaluated controller schedules refresh elastically (REF can be
	// postponed past pending demand), as the refresh-optimization work
	// the paper compares against assumes.
	cfg.RefreshPostponeProb = 0.5
	return cfg
}

// memconMem returns the MEMCON memory configuration at the given refresh
// reduction with test traffic injected.
func memconMem(d dram.Density, reduction float64, testsPerWindow int, seed int64) (memctrl.Config, error) {
	cfg := baselineMem(d, seed)
	p, err := memctrl.StretchedRefreshPeriod(dram.RefreshWindowAggressive, reduction)
	if err != nil {
		return memctrl.Config{}, err
	}
	cfg.RefreshPeriod = p
	cfg.TestsPerWindow = testsPerWindow
	return cfg, nil
}

// avgSpeedup runs all mixes and returns the mean weighted speedup of
// scheme over baseline. The mixes are independent simulations, so they
// fan out over the run's worker budget; each mix simulates under its
// own parallel.Seed(req.Seed, i) stream and the speedups are averaged
// in mix order, so the result is identical for any worker count.
func avgSpeedup(ctx context.Context, req Request, workers int, mixes [][]workload.CoreParams, base, scheme memctrl.Config) (float64, error) {
	speedups, err := parallel.Map(ctx, len(mixes), workers, func(i int) (float64, error) {
		return sim.MixSpeedup(mixes[i], base, scheme, req.SimTimeNs, parallel.Seed(req.Seed, i))
	})
	if err != nil {
		return 0, err
	}
	return stats.Mean(speedups), nil
}

// Fig15Cell is one (cores, density, reduction) speedup.
type Fig15Cell struct {
	Cores     int
	Density   dram.Density
	Reduction float64
	Speedup   float64
}

// Fig15Result reproduces Fig. 15: MEMCON speedup over the 16 ms baseline
// for 60% and 75% refresh reductions, single- and four-core, across
// densities. Test traffic (256 tests per 64 ms) is included, as in the
// paper.
type Fig15Result struct {
	resultMeta
	Cells []Fig15Cell
}

// RunFig15 sweeps the speedup grid.
func RunFig15(ctx context.Context, req Request, rt Runtime) (Result, error) {
	res := &Fig15Result{}
	for _, cores := range []int{1, 4} {
		mixes := workload.Mixes(req.Mixes, cores, req.Seed)
		for _, d := range densities {
			for _, reduction := range []float64{0.60, 0.75} {
				scheme, err := memconMem(d, reduction, 256, req.Seed)
				if err != nil {
					return nil, err
				}
				s, err := avgSpeedup(ctx, req, rt.Workers, mixes, baselineMem(d, req.Seed), scheme)
				if err != nil {
					return nil, err
				}
				res.Cells = append(res.Cells, Fig15Cell{Cores: cores, Density: d, Reduction: reduction, Speedup: s})
			}
		}
	}
	return res, nil
}

// Speedup returns the cell for the given parameters, or 0.
func (r *Fig15Result) Speedup(cores int, d dram.Density, reduction float64) float64 {
	for _, c := range r.Cells {
		if c.Cores == cores && c.Density == d && c.Reduction == reduction {
			return c.Speedup
		}
	}
	return 0
}

// Report builds the Fig. 15 document: per-core pivot tables for the
// text rendering, one flat machine table (the pre-typed CSV layout) for
// CSV, JSON, and diffing.
func (r *Fig15Result) Report() *report.Report {
	rep := report.New(r.provenance())
	rep.Primary = "cells"
	rep.Textf("Fig. 15 — MEMCON speedup over baseline (16 ms refresh), incl. 256 tests/64 ms\n\n")
	for _, cores := range []int{1, 4} {
		rep.Textf("%d-core:\n", cores)
		t := report.NewTable(fmt.Sprintf("pivot_%dcore", cores),
			report.CStr("density", ""),
			report.CFloat("r60", "60% reduction", "x"),
			report.CFloat("r75", "75% reduction", "x"))
		for _, d := range densities {
			s60, s75 := r.Speedup(cores, d, 0.60), r.Speedup(cores, d, 0.75)
			t.Add(report.S(d.String()),
				report.F(s60, fmt.Sprintf("%.2fx", s60)),
				report.F(s75, fmt.Sprintf("%.2fx", s75)))
		}
		rep.AddTextTable(t)
		rep.Textf("\n")
	}
	rep.Textf("%s", "paper: 10%/17%/40% to 12%/22%/50% (1-core) and 10%/23%/52% to 17%/29%/65% (4-core) for 8/16/32 Gb\n")
	ct := report.NewTable("cells",
		report.CInt("cores", "", ""),
		report.CStr("density", ""),
		report.CFloat("reduction", "", "fraction"),
		report.CFloat("speedup", "", "x"))
	for _, c := range r.Cells {
		ct.Add(report.I(int64(c.Cores)), report.S(c.Density.String()),
			report.Fv(c.Reduction), report.Fv(c.Speedup))
	}
	rep.AddDataTable(ct)
	return rep
}

// Table3Cell is one (cores, tests) overhead entry.
type Table3Cell struct {
	Cores int
	Tests int
	// Loss is the fractional performance loss vs zero-overhead testing.
	Loss float64
}

// Table3Result reproduces Table 3: performance loss from the extra
// memory accesses of 256/512/1024 concurrent tests every 64 ms.
type Table3Result struct {
	resultMeta
	Cells []Table3Cell
}

// RunTable3 sweeps test-traffic intensity.
func RunTable3(ctx context.Context, req Request, rt Runtime) (Result, error) {
	res := &Table3Result{}
	for _, cores := range []int{1, 4} {
		mixes := workload.Mixes(req.Mixes, cores, req.Seed)
		// The ideal configuration has MEMCON's refresh reduction but free
		// testing.
		ideal, err := memconMem(dram.Density8Gb, 0.70, 0, req.Seed)
		if err != nil {
			return nil, err
		}
		for _, tests := range []int{256, 512, 1024} {
			loaded := ideal
			loaded.TestsPerWindow = tests
			s, err := avgSpeedup(ctx, req, rt.Workers, mixes, ideal, loaded)
			if err != nil {
				return nil, err
			}
			res.Cells = append(res.Cells, Table3Cell{Cores: cores, Tests: tests, Loss: 1 - s})
		}
	}
	return res, nil
}

// Loss returns the cell value for the given parameters, or 0.
func (r *Table3Result) Loss(cores, tests int) float64 {
	for _, c := range r.Cells {
		if c.Cores == cores && c.Tests == tests {
			return c.Loss
		}
	}
	return 0
}

// Report builds the Table 3 document. The first column is unlabeled in
// the text rendering (matching the paper table), so its Column is built
// directly with an empty Label rather than through CStr.
func (r *Table3Result) Report() *report.Report {
	rep := report.New(r.provenance())
	rep.Textf("Table 3 — performance loss due to extra accesses for testing\n\n")
	t := report.NewTable("losses",
		report.Column{Name: "config", Kind: report.KindString},
		report.CFloat("t256", "256 tests", "fraction"),
		report.CFloat("t512", "512 tests", "fraction"),
		report.CFloat("t1024", "1024 tests", "fraction"))
	for _, cores := range []int{1, 4} {
		l256, l512, l1024 := r.Loss(cores, 256), r.Loss(cores, 512), r.Loss(cores, 1024)
		t.Add(report.S(fmt.Sprintf("%d-core", cores)),
			report.F(l256, pct2(l256)), report.F(l512, pct2(l512)), report.F(l1024, pct2(l1024)))
	}
	rep.AddTable(t)
	rep.Textf("%s", "\npaper: 0.54%/1.03%/1.88% (1-core), 0.05%/0.09%/0.48% (4-core)\n")
	return rep
}

// Fig16Cell is one (cores, density, policy) speedup over the 16 ms
// baseline.
type Fig16Cell struct {
	Cores   int
	Density dram.Density
	Policy  string
	Speedup float64
}

// Fig16Result reproduces Fig. 16: 32 ms refresh, RAIDR, MEMCON, and the
// ideal 64 ms refresh, all over the 16 ms baseline.
type Fig16Result struct {
	resultMeta
	Cells []Fig16Cell
}

// raidrReduction is RAIDR's refresh reduction over the all-16 ms
// baseline. RAIDR keeps the 16% of rows its profile flags at 16 ms and
// refreshes the rest at 64 ms, so the reduction is
// 1 − (0.16 + 0.84·16/64) = 0.63. Fig. 16 and the energy comparison
// both use it. It stays an untyped constant so 1 − raidrReduction is an
// exact constant expression.
const raidrReduction = 0.63

// fig16Policies maps names to (reduction vs 16 ms baseline, tests).
// 32 ms halves refresh ops (50%); RAIDR keeps 16% of rows at 16 ms
// (raidrReduction); MEMCON averages ~70% with test traffic; 64 ms is the
// 75% ideal.
var fig16Policies = []struct {
	name      string
	reduction float64
	tests     int
}{
	{"32ms", 0.50, 0},
	{"RAIDR", raidrReduction, 0},
	{"MEMCON", 0.70, 256},
	{"64ms", 0.75, 0},
}

// RunFig16 sweeps refresh policies.
func RunFig16(ctx context.Context, req Request, rt Runtime) (Result, error) {
	res := &Fig16Result{}
	for _, cores := range []int{1, 4} {
		mixes := workload.Mixes(req.Mixes, cores, req.Seed)
		for _, d := range densities {
			base := baselineMem(d, req.Seed)
			for _, pol := range fig16Policies {
				scheme, err := memconMem(d, pol.reduction, pol.tests, req.Seed)
				if err != nil {
					return nil, err
				}
				s, err := avgSpeedup(ctx, req, rt.Workers, mixes, base, scheme)
				if err != nil {
					return nil, err
				}
				res.Cells = append(res.Cells, Fig16Cell{Cores: cores, Density: d, Policy: pol.name, Speedup: s})
			}
		}
	}
	return res, nil
}

// Speedup returns the cell for the given parameters, or 0.
func (r *Fig16Result) Speedup(cores int, d dram.Density, policy string) float64 {
	for _, c := range r.Cells {
		if c.Cores == cores && c.Density == d && c.Policy == policy {
			return c.Speedup
		}
	}
	return 0
}

// Report builds the Fig. 16 document: per-core pivots for text, one
// flat machine table for CSV/JSON/diff.
func (r *Fig16Result) Report() *report.Report {
	rep := report.New(r.provenance())
	rep.Primary = "cells"
	rep.Textf("Fig. 16 — speedup over 16 ms baseline, by refresh mechanism\n\n")
	for _, cores := range []int{1, 4} {
		rep.Textf("%d-core:\n", cores)
		cols := []report.Column{report.CStr("density", "")}
		for _, p := range fig16Policies {
			cols = append(cols, report.CFloat(p.name, p.name, "x"))
		}
		t := report.NewTable(fmt.Sprintf("pivot_%dcore", cores), cols...)
		for _, d := range densities {
			row := []report.Cell{report.S(d.String())}
			for _, p := range fig16Policies {
				v := r.Speedup(cores, d, p.name)
				row = append(row, report.F(v, fmt.Sprintf("%.2fx", v)))
			}
			t.Add(row...)
		}
		rep.AddTextTable(t)
		rep.Textf("\n")
	}
	rep.Textf("%s", "expected ordering: 32ms < RAIDR < MEMCON <= 64ms; MEMCON within 3-5% of 64 ms\n")
	ct := report.NewTable("cells",
		report.CInt("cores", "", ""),
		report.CStr("density", ""),
		report.CStr("policy", ""),
		report.CFloat("speedup", "", "x"))
	for _, c := range r.Cells {
		ct.Add(report.I(int64(c.Cores)), report.S(c.Density.String()),
			report.S(c.Policy), report.Fv(c.Speedup))
	}
	rep.AddDataTable(ct)
	return rep
}
