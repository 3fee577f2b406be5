package experiments

import (
	"context"
	"sort"

	"memcon/internal/dram"
	"memcon/internal/faults"
	"memcon/internal/parallel"
	"memcon/internal/report"
	"memcon/internal/softmc"
	"memcon/internal/workload"
)

// charGeometry sizes the characterized module by the option scale.
func charGeometry(scale float64) dram.Geometry {
	g := dram.DefaultGeometry()
	rows := int(float64(g.RowsPerBank) * scale)
	if rows < 64 {
		rows = 64
	}
	g.RowsPerBank = rows
	return g
}

// chipModel builds one simulated chip's silicon: the scrambler and the
// fault model over it. mapping selects the vendor address-mapping
// scheme; "" means the default (see dram.NewMappedScrambler). The model
// is read-only once built, so a run builds it once and gives each of
// its units a tester of its own over it (chipTester).
func chipModel(geom dram.Geometry, seed uint64, params faults.Params, mapping string) (*faults.Model, error) {
	scr, err := dram.NewMappedScrambler(geom, seed, nil, mapping)
	if err != nil {
		return nil, err
	}
	return faults.NewModel(geom, scr, seed, params)
}

// chipTester pairs the model with a fresh module (all zero, fully
// charged at time zero) and a tester over both, for one unit of a run:
// a module and its tester's clock are per-unit state.
func chipTester(model *faults.Model) (*softmc.Tester, error) {
	mod, err := dram.NewModule(model.Geometry())
	if err != nil {
		return nil, err
	}
	return softmc.NewTester(mod, model)
}

// Fig3Result reproduces Fig. 3: for each data pattern, the set of
// failing cells; cells fail conditionally depending on content.
type Fig3Result struct {
	resultMeta
	Patterns int
	// FailuresPerPattern[i] is the number of failing cells under
	// pattern i.
	FailuresPerPattern []int
	PatternNames       []string
	// UniqueCells is the number of distinct cells that failed under at
	// least one pattern.
	UniqueCells int
	// ConditionalCells is the number of those that also PASSED under at
	// least one pattern — the cells whose failure is data-dependent.
	ConditionalCells int
	// MaxPatternsPerCell is the largest number of patterns any single
	// cell failed under.
	MaxPatternsPerCell int
}

// RunFig3 tests one chip with the standard pattern suite at the
// characterization idle time and reports how failure sets vary with
// content. The chip's fault model is built once; every pattern run gets
// a fresh module and tester over it, so the sweep fans out over the
// worker budget and the per-pattern failure sets merge back in pattern
// order.
func RunFig3(ctx context.Context, req Request, rt Runtime) (Result, error) {
	geom := charGeometry(req.Scale * 0.25) // one-bank-scale study
	geom.BanksPerChip = 1
	patterns := softmc.StandardPatterns(100)
	model, err := chipModel(geom, uint64(req.Seed), faults.DefaultParams(), req.Mapping)
	if err != nil {
		return nil, err
	}

	fails, err := parallel.Map(ctx, len(patterns), rt.Workers, func(i int) ([]softmc.RowFailure, error) {
		tester, err := chipTester(model)
		if err != nil {
			return nil, err
		}
		return tester.RunPattern(patterns[i], faults.CharacterizationIdle)
	})
	if err != nil {
		return nil, err
	}

	type cell struct{ bank, row, col int }
	counts := make(map[cell]int) // patterns each cell failed under
	res := &Fig3Result{Patterns: len(patterns)}
	for i, p := range patterns {
		n := 0
		for _, f := range fails[i] {
			for _, c := range f.Cells {
				counts[cell{f.Addr.Bank, f.Addr.Row, c}]++
				n++
			}
		}
		res.FailuresPerPattern = append(res.FailuresPerPattern, n)
		res.PatternNames = append(res.PatternNames, p.Name)
	}
	res.UniqueCells = len(counts)
	for _, c := range counts {
		if c < res.Patterns {
			res.ConditionalCells++
		}
		if c > res.MaxPatternsPerCell {
			res.MaxPatternsPerCell = c
		}
	}
	return res, nil
}

// Report builds the Fig. 3 document. The random-pattern tail rows are
// hidden: elided from the text rendering, still present in CSV/JSON and
// still diffed.
func (r *Fig3Result) Report() *report.Report {
	rep := report.New(r.provenance())
	rep.Textf("Fig. 3 — cells failing with different data content (%d patterns)\n\n", r.Patterns)
	t := report.NewTable("patterns",
		report.CStr("pattern", ""),
		report.CInt("failing_cells", "failing cells", "cells"))
	for i, n := range r.FailuresPerPattern {
		cells := []report.Cell{report.S(r.PatternNames[i]), report.I(int64(n))}
		if i < 12 || n == 0 { // print the classic patterns; elide the random tail
			t.Add(cells...)
		} else {
			t.AddHidden(cells...)
		}
	}
	rep.AddTable(t)
	rep.Textf("\nunique failing cells:        %d\n", r.UniqueCells)
	rep.Textf("data-dependent (conditional): %d (%.1f%%)\n",
		r.ConditionalCells, 100*float64(r.ConditionalCells)/float64(max(1, r.UniqueCells)))
	rep.Textf("max patterns failed by a cell: %d of %d\n", r.MaxPatternsPerCell, r.Patterns)
	st := report.NewTable("summary",
		report.CInt("unique_cells", "", "cells"),
		report.CInt("conditional_cells", "", "cells"),
		report.CInt("max_patterns_per_cell", "", "patterns"))
	st.Add(report.I(int64(r.UniqueCells)), report.I(int64(r.ConditionalCells)), report.I(int64(r.MaxPatternsPerCell)))
	rep.AddDataTable(st)
	return rep
}

// Fig4Row is one benchmark's failing-row fractions.
type Fig4Row struct {
	Benchmark string
	// Avg/Min/Max over execution phases of the fraction of rows failing
	// with the program content.
	Avg, Min, Max float64
}

// Fig4Result reproduces Fig. 4.
type Fig4Result struct {
	resultMeta
	Rows []Fig4Row
	// AllFail is the fraction of rows failing under ANY pattern.
	AllFail float64
	// RatioMin/RatioMax bound AllFail/Avg over the benchmarks (paper:
	// 2.4x - 35.2x).
	RatioMin, RatioMax float64
}

// RunFig4 measures per-benchmark failing-row fractions with program
// content across phases, against the all-pattern denominator. The
// chip's fault model is built once; each benchmark gets its own module
// and tester over it, so the sweep fans out. A content run refills the
// whole module, so no benchmark's result depends on which ran before
// it.
func RunFig4(ctx context.Context, req Request, rt Runtime) (Result, error) {
	geom := charGeometry(req.Scale)
	idle := faults.CharacterizationIdle
	const phases = 5

	model, err := chipModel(geom, uint64(req.Seed), faults.DefaultParams(), req.Mapping)
	if err != nil {
		return nil, err
	}
	tester, err := chipTester(model)
	if err != nil {
		return nil, err
	}
	allFail, err := tester.AllFailFractionParallel(ctx, idle, rt.Workers)
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{AllFail: allFail}

	specs := workload.SPECContents()
	rows, err := parallel.Map(ctx, len(specs), rt.Workers, func(i int) (Fig4Row, error) {
		spec := specs[i]
		tester, err := chipTester(model)
		if err != nil {
			return Fig4Row{}, err
		}
		row := Fig4Row{Benchmark: spec.Name, Min: 1}
		var sum float64
		for ph := 0; ph < phases; ph++ {
			img := spec.Image(geom.RowsPerBank, geom.ColsPerRow, ph, req.Seed)
			frac, err := tester.FailingRowFraction(img, idle)
			if err != nil {
				return Fig4Row{}, err
			}
			sum += frac
			if frac < row.Min {
				row.Min = frac
			}
			if frac > row.Max {
				row.Max = frac
			}
		}
		row.Avg = sum / phases
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	res.RatioMin, res.RatioMax = 1e18, 0
	for _, r := range res.Rows {
		if r.Avg <= 0 {
			continue
		}
		ratio := res.AllFail / r.Avg
		if ratio < res.RatioMin {
			res.RatioMin = ratio
		}
		if ratio > res.RatioMax {
			res.RatioMax = ratio
		}
	}
	return res, nil
}

// Report builds the Fig. 4 document. Rows are ordered by descending
// average (the figure's ordering); the ALL FAIL denominator is the last
// row, with empty min/max cells.
func (r *Fig4Result) Report() *report.Report {
	rep := report.New(r.provenance())
	rep.Textf("Fig. 4 — percentage of rows with data-dependent failures\n\n")
	t := report.NewTable("rows",
		report.CStr("benchmark", ""),
		report.CFloat("avg", "", "fraction"),
		report.CFloat("min", "", "fraction"),
		report.CFloat("max", "", "fraction"))
	rows := append([]Fig4Row(nil), r.Rows...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Avg > rows[j].Avg })
	for _, row := range rows {
		t.Add(report.S(row.Benchmark),
			report.F(row.Avg, pct2(row.Avg)),
			report.F(row.Min, pct2(row.Min)),
			report.F(row.Max, pct2(row.Max)))
	}
	t.Add(report.S("ALL FAIL"), report.F(r.AllFail, pct2(r.AllFail)), report.S(""), report.S(""))
	rep.AddTable(t)
	rep.Textf("\nprogram content exhibits %.1fx-%.1fx fewer failing rows than ALL FAIL (paper: 2.4x-35.2x)\n",
		r.RatioMin, r.RatioMax)
	st := report.NewTable("summary",
		report.CFloat("ratio_min", "", "x"),
		report.CFloat("ratio_max", "", "x"))
	st.Add(report.Fv(r.RatioMin), report.Fv(r.RatioMax))
	rep.AddDataTable(st)
	return rep
}
