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

// runFig3 reproduces Fig. 3: it tests one chip with the standard
// pattern suite at the characterization idle time and reports how
// failure sets vary with content. The chip's fault model is built once;
// every pattern run gets a fresh module and tester over it, so the
// sweep fans out over the worker budget and the per-pattern failure
// sets merge back in pattern order. The random-pattern tail rows are
// hidden: elided from the text rendering, still present in CSV/JSON and
// still diffed.
func runFig3(ctx context.Context, req Request, rt Runtime) (*report.Report, error) {
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

	rep := report.New()
	rep.Textf("Fig. 3 — cells failing with different data content (%d patterns)\n\n", len(patterns))
	t := report.NewTable("patterns",
		report.CStr("pattern", ""),
		report.CInt("failing_cells", "failing cells", "cells"))
	type cell struct{ bank, row, col int }
	counts := make(map[cell]int) // patterns each cell failed under
	for i, p := range patterns {
		n := 0
		for _, f := range fails[i] {
			for _, c := range f.Cells {
				counts[cell{f.Addr.Bank, f.Addr.Row, c}]++
				n++
			}
		}
		cells := []report.Cell{report.S(p.Name), report.I(int64(n))}
		if i < 12 || n == 0 { // print the classic patterns; elide the random tail
			t.Add(cells...)
		} else {
			t.AddHidden(cells...)
		}
	}
	// conditional counts the failing cells that also PASSED under at
	// least one pattern — the cells whose failure is data-dependent;
	// maxPatterns is the most patterns any single cell failed under.
	unique := len(counts)
	var conditional, maxPatterns int
	for _, c := range counts {
		if c < len(patterns) {
			conditional++
		}
		if c > maxPatterns {
			maxPatterns = c
		}
	}
	rep.AddTable(t)
	rep.Textf("\nunique failing cells:        %d\n", unique)
	rep.Textf("data-dependent (conditional): %d (%.1f%%)\n",
		conditional, 100*float64(conditional)/float64(max(1, unique)))
	rep.Textf("max patterns failed by a cell: %d of %d\n", maxPatterns, len(patterns))
	st := report.NewTable("summary",
		report.CInt("unique_cells", "", "cells"),
		report.CInt("conditional_cells", "", "cells"),
		report.CInt("max_patterns_per_cell", "", "patterns"))
	st.Add(report.I(int64(unique)), report.I(int64(conditional)), report.I(int64(maxPatterns)))
	rep.AddDataTable(st)
	return rep, nil
}

// fig4Row is one benchmark's failing-row fractions: the average,
// minimum and maximum over execution phases of the fraction of rows
// failing with the program content.
type fig4Row struct {
	benchmark     string
	avg, min, max float64
}

// runFig4 measures per-benchmark failing-row fractions with program
// content across phases, against the all-pattern (ALL FAIL)
// denominator, and bounds ALL FAIL/avg over the benchmarks (paper:
// 2.4x - 35.2x). The chip's fault model is built once; each benchmark
// gets its own module and tester over it, so the sweep fans out. A
// content run refills the whole module, so no benchmark's result
// depends on which ran before it. Rows are reported by descending
// average (the figure's ordering); the ALL FAIL denominator is the last
// row, with empty min/max cells.
func runFig4(ctx context.Context, req Request, rt Runtime) (*report.Report, error) {
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
	tester.SetParallelism(rt.Workers)
	allFail, err := tester.AllFailFraction(ctx, idle)
	if err != nil {
		return nil, err
	}

	specs := workload.SPECContents()
	rows, err := parallel.Map(ctx, len(specs), rt.Workers, func(i int) (fig4Row, error) {
		spec := specs[i]
		tester, err := chipTester(model)
		if err != nil {
			return fig4Row{}, err
		}
		row := fig4Row{benchmark: spec.Name, min: 1}
		var sum float64
		for ph := 0; ph < phases; ph++ {
			img := spec.Image(geom.RowsPerBank, geom.ColsPerRow, ph, req.Seed)
			frac, err := tester.FailingRowFraction(img, idle)
			if err != nil {
				return fig4Row{}, err
			}
			sum += frac
			if frac < row.min {
				row.min = frac
			}
			if frac > row.max {
				row.max = frac
			}
		}
		row.avg = sum / phases
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	ratioMin, ratioMax := 1e18, 0.0
	for _, r := range rows {
		if r.avg <= 0 {
			continue
		}
		ratio := allFail / r.avg
		if ratio < ratioMin {
			ratioMin = ratio
		}
		if ratio > ratioMax {
			ratioMax = ratio
		}
	}

	rep := report.New()
	rep.Textf("Fig. 4 — percentage of rows with data-dependent failures\n\n")
	t := report.NewTable("rows",
		report.CStr("benchmark", ""),
		report.CFloat("avg", "", "fraction"),
		report.CFloat("min", "", "fraction"),
		report.CFloat("max", "", "fraction"))
	sort.Slice(rows, func(i, j int) bool { return rows[i].avg > rows[j].avg })
	for _, row := range rows {
		t.Add(report.S(row.benchmark),
			report.F(row.avg, pct2(row.avg)),
			report.F(row.min, pct2(row.min)),
			report.F(row.max, pct2(row.max)))
	}
	t.Add(report.S("ALL FAIL"), report.F(allFail, pct2(allFail)), report.S(""), report.S(""))
	rep.AddTable(t)
	rep.Textf("\nprogram content exhibits %.1fx-%.1fx fewer failing rows than ALL FAIL (paper: 2.4x-35.2x)\n",
		ratioMin, ratioMax)
	st := report.NewTable("summary",
		report.CFloat("ratio_min", "", "x"),
		report.CFloat("ratio_max", "", "x"))
	st.Add(report.Fv(ratioMin), report.Fv(ratioMax))
	rep.AddDataTable(st)
	return rep, nil
}
