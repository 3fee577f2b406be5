package experiments

import (
	"context"
	"fmt"

	"memcon/internal/core"
	"memcon/internal/dram"
	"memcon/internal/faults"
	"memcon/internal/profiler"
	"memcon/internal/report"
	"memcon/internal/trace"
)

// runProfile executes profiling campaigns at several guardbands
// against one chip and reports coverage vs ground truth, quantifying
// the §6.3 tension: wider guardbands catch more truly weak rows but
// over-profile, and even then escapes remain — the argument for
// content-based online testing.
func runProfile(ctx context.Context, req Request, rt Runtime) (*report.Report, error) {
	geom := charGeometry(req.Scale * 0.5)
	geom.BanksPerChip = 2
	params := faults.ParamsForRefresh(dram.RefreshWindowDefault)
	params.WeakCellFraction = 3e-3
	model, err := chipModel(geom, uint64(req.Seed), params, req.Mapping)
	if err != nil {
		return nil, err
	}
	rep := report.New()
	rep.Textf("Profiling study — pattern campaign coverage vs silicon ground truth\n\n")
	t := report.NewTable("rows",
		report.CFloat("guardband", "", "x"),
		report.CFloat("weak_row_frac", "flagged rows", "fraction"),
		report.CFloat("escape_rate", "escape rate", "fraction"),
		report.CInt("false_alarms", "false alarms", "rows"))
	for _, guard := range []float64{1.0, 1.25, 1.5, 2.0} {
		// A fresh module and tester per campaign over the one model:
		// profiling consumes the test clock and rewrites the content.
		tester, err := chipTester(model)
		if err != nil {
			return nil, err
		}
		// The guardband sweep is serial, so the tester's read-back scans
		// get the whole worker budget (ReadBack output is identical for
		// any parallelism).
		tester.SetParallelism(rt.Workers)
		cfg := profiler.DefaultConfig()
		cfg.Guardband = guard
		p, err := profiler.Run(tester, geom, cfg)
		if err != nil {
			return nil, err
		}
		esc := profiler.Escapes(p, model, cfg.TargetIdle)
		weak, escapes := p.WeakRowFraction(), esc.EscapeRate()
		t.Add(report.F(guard, fmt.Sprintf("%.2fx", guard)),
			report.F(weak, pct2(weak)),
			report.F(escapes, pct(escapes)),
			report.I(int64(esc.FalseAlarms)))
	}
	rep.AddTable(t)
	rep.Textf("\nguardbands trade over-profiling (false alarms refreshed at HI forever) against\nescapes; neither reaches zero escapes without physical-neighbourhood knowledge\n")
	return rep, nil
}

// runAblRemap measures what remap mitigation buys on chips whose
// content keeps failing tests: it runs the full-fidelity system with a
// dense weak-cell population, with and without remap mitigation.
func runAblRemap(ctx context.Context, req Request, rt Runtime) (*report.Report, error) {
	geom := dram.Geometry{
		Ranks: 1, ChipsPerRank: 1, BanksPerChip: 2,
		RowsPerBank: 256, ColsPerRow: 512, RedundantCols: 16,
	}
	mkTrace := func() *trace.Trace {
		tr := &trace.Trace{Duration: 20 * 1024 * trace.Millisecond}
		for p := uint32(0); p < 200; p++ {
			tr.Events = append(tr.Events, trace.Event{Page: p, At: trace.Microseconds(p) * 991})
		}
		tr.Sort()
		return tr
	}
	run := func(withRemap bool) (core.Report, int, error) {
		scr, err := dram.NewMappedScrambler(geom, uint64(req.Seed), nil, req.Mapping)
		if err != nil {
			return core.Report{}, 0, err
		}
		params := faults.ParamsForRefresh(dram.RefreshWindowDefault)
		params.WeakCellFraction = 3e-2
		model, err := faults.NewModel(geom, scr, uint64(req.Seed), params)
		if err != nil {
			return core.Report{}, 0, err
		}
		mod, err := dram.NewModule(geom)
		if err != nil {
			return core.Report{}, 0, err
		}
		sys, err := core.NewSystem(core.DefaultConfig(), mod, model, core.WithObserver(rt.Observer))
		if err != nil {
			return core.Report{}, 0, err
		}
		if withRemap {
			if err := sys.EnableRemapMitigation(8, 1); err != nil {
				return core.Report{}, 0, err
			}
		}
		rep, err := sys.Run(mkTrace())
		return rep, sys.RemappedRows(), err
	}
	plain, _, err := run(false)
	if err != nil {
		return nil, err
	}
	remapped, n, err := run(true)
	if err != nil {
		return nil, err
	}
	rep := report.New()
	rep.Textf("Ablation — remap mitigation for rows that keep failing tests\n\n")
	t := report.NewTable("rows",
		report.CStr("configuration", ""),
		report.CFloat("reduction", "refresh reduction", "fraction"))
	plainRed, remapRed := plain.RefreshReduction(), remapped.RefreshReduction()
	t.Add(report.S("HI-REF mitigation only (paper)"), report.F(plainRed, pct(plainRed)))
	t.Add(report.S("with remap to screened spares"), report.F(remapRed, pct(remapRed)))
	rep.AddTable(t)
	rep.Textf("\n%d failing tests; %d rows remapped — completing the paper's mitigation triad\n(high refresh / ECC / remapping) converts permanently-HI rows into LO rows\n",
		plain.TestsFailed, n)
	st := report.NewTable("summary",
		report.CInt("tests_failed", "", ""),
		report.CInt("remapped_rows", "", "rows"))
	st.Add(report.I(plain.TestsFailed), report.I(int64(n)))
	rep.AddDataTable(st)
	return rep, nil
}
