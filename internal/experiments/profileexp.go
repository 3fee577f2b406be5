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

func init() {
	registry["profile"] = entry{RunProfile, "Profiling: RAIDR/REAPER-style campaign vs ground truth across guardbands", false}
	registry["abl-remap"] = entry{RunAblRemap, "Ablation: remap mitigation for always-failing rows (full-fidelity system)", false}
}

// ProfileRow is one guardband point of the profiling study.
type ProfileRow struct {
	Guardband   float64
	Rounds      int
	WeakRowFrac float64
	EscapeRate  float64
	FalseAlarms int
}

// ProfileResult sweeps the profiling campaign's guardband, quantifying
// the §6.3 tension: wider guardbands catch more truly weak rows but
// over-profile, and even then escapes remain — the argument for
// content-based online testing.
type ProfileResult struct {
	resultMeta
	Rows []ProfileRow
}

// RunProfile executes profiling campaigns at several guardbands against
// one chip and reports coverage vs ground truth.
func RunProfile(ctx context.Context, req Request, rt Runtime) (Result, error) {
	geom := charGeometry(req.Scale * 0.5)
	geom.BanksPerChip = 2
	params := faults.ParamsForRefresh(dram.RefreshWindowDefault)
	params.WeakCellFraction = 3e-3
	model, err := chipModel(geom, uint64(req.Seed), params, req.Mapping)
	if err != nil {
		return nil, err
	}
	res := &ProfileResult{}
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
		rep := profiler.Escapes(p, model, cfg.TargetIdle)
		res.Rows = append(res.Rows, ProfileRow{
			Guardband:   guard,
			Rounds:      cfg.Rounds,
			WeakRowFrac: p.WeakRowFraction(),
			EscapeRate:  rep.EscapeRate(),
			FalseAlarms: rep.FalseAlarms,
		})
	}
	return res, nil
}

// Report builds the profiling-study document.
func (r *ProfileResult) Report() *report.Report {
	rep := report.New(r.provenance())
	rep.Textf("Profiling study — pattern campaign coverage vs silicon ground truth\n\n")
	t := report.NewTable("rows",
		report.CFloat("guardband", "", "x"),
		report.CFloat("weak_row_frac", "flagged rows", "fraction"),
		report.CFloat("escape_rate", "escape rate", "fraction"),
		report.CInt("false_alarms", "false alarms", "rows"))
	for _, row := range r.Rows {
		t.Add(report.F(row.Guardband, fmt.Sprintf("%.2fx", row.Guardband)),
			report.F(row.WeakRowFrac, pct2(row.WeakRowFrac)),
			report.F(row.EscapeRate, pct(row.EscapeRate)),
			report.I(int64(row.FalseAlarms)))
	}
	rep.AddTable(t)
	rep.Textf("\nguardbands trade over-profiling (false alarms refreshed at HI forever) against\nescapes; neither reaches zero escapes without physical-neighbourhood knowledge\n")
	return rep
}

// AblRemapResult measures what remap mitigation buys on chips whose
// content keeps failing tests.
type AblRemapResult struct {
	resultMeta
	PlainReduction float64
	RemapReduction float64
	RemappedRows   int
	TestsFailed    int64
}

// RunAblRemap runs the full-fidelity system with a dense weak-cell
// population, with and without remap mitigation.
func RunAblRemap(ctx context.Context, req Request, rt Runtime) (Result, error) {
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
	return &AblRemapResult{
		PlainReduction: plain.RefreshReduction(),
		RemapReduction: remapped.RefreshReduction(),
		RemappedRows:   n,
		TestsFailed:    plain.TestsFailed,
	}, nil
}

// Report builds the remap-ablation document.
func (r *AblRemapResult) Report() *report.Report {
	rep := report.New(r.provenance())
	rep.Textf("Ablation — remap mitigation for rows that keep failing tests\n\n")
	t := report.NewTable("rows",
		report.CStr("configuration", ""),
		report.CFloat("reduction", "refresh reduction", "fraction"))
	t.Add(report.S("HI-REF mitigation only (paper)"), report.F(r.PlainReduction, pct(r.PlainReduction)))
	t.Add(report.S("with remap to screened spares"), report.F(r.RemapReduction, pct(r.RemapReduction)))
	rep.AddTable(t)
	rep.Textf("\n%d failing tests; %d rows remapped — completing the paper's mitigation triad\n(high refresh / ECC / remapping) converts permanently-HI rows into LO rows\n",
		r.TestsFailed, r.RemappedRows)
	st := report.NewTable("summary",
		report.CInt("tests_failed", "", ""),
		report.CInt("remapped_rows", "", "rows"))
	st.Add(report.I(r.TestsFailed), report.I(int64(r.RemappedRows)))
	rep.AddDataTable(st)
	return rep
}
