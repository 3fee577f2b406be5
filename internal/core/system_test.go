package core

import (
	"testing"

	"memcon/internal/dram"
	"memcon/internal/faults"
	"memcon/internal/obs"
	"memcon/internal/trace"
)

func systemGeometry() dram.Geometry {
	return dram.Geometry{
		Ranks:         1,
		ChipsPerRank:  1,
		BanksPerChip:  2,
		RowsPerBank:   256,
		ColsPerRow:    512,
		RedundantCols: 16,
	}
}

func newSystem(t *testing.T, weakFraction float64, opts ...EngineOption) (*System, dram.Geometry) {
	t.Helper()
	geom := systemGeometry()
	scr := dram.NewScrambler(geom, 77, nil)
	params := faults.ParamsForRefresh(dram.RefreshWindowDefault)
	if weakFraction > 0 {
		params.WeakCellFraction = weakFraction
	}
	model, err := faults.NewModel(geom, scr, 77, params)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := dram.NewModule(geom)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(cfgForTest(), mod, model, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sys, geom
}

func TestNewSystemGeometryMismatch(t *testing.T) {
	geomA := systemGeometry()
	geomB := systemGeometry()
	geomB.RowsPerBank *= 2
	scr := dram.NewScrambler(geomA, 1, nil)
	model, err := faults.NewModel(geomA, scr, 1, faults.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	mod, err := dram.NewModule(geomB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSystem(cfgForTest(), mod, model); err == nil {
		t.Error("geometry mismatch accepted")
	}
}

func TestSystemRejectsOversizedTrace(t *testing.T) {
	sys, geom := newSystem(t, 0)
	tr := &trace.Trace{
		Duration: 4 * q,
		Events:   []trace.Event{{Page: uint32(geom.TotalRows()), At: 0}},
	}
	if _, err := sys.Run(tr); err == nil {
		t.Error("page beyond module capacity accepted")
	}
}

func TestSystemEndToEnd(t *testing.T) {
	sys, _ := newSystem(t, 2e-3)
	// 50 pages, each written once and left idle: most go to LO-REF, a
	// few may fail their test and stay mitigated at HI-REF.
	tr := &trace.Trace{Duration: 20 * q}
	for p := uint32(0); p < 50; p++ {
		tr.Events = append(tr.Events, trace.Event{Page: p, At: trace.Microseconds(p) * 997})
	}
	tr.Sort()
	rep, err := sys.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TestsCompleted == 0 {
		t.Fatal("no tests completed")
	}
	// The reliability guarantee: no silent failures, ever.
	if got := sys.UndetectedFailures(); got != 0 {
		t.Errorf("undetected failures = %d, want 0", got)
	}
	if rep.RefreshReduction() <= 0 {
		t.Errorf("reduction = %v, want positive", rep.RefreshReduction())
	}
}

func TestSystemDetectsAggressiveContent(t *testing.T) {
	// With a dense weak-cell population, some tests must fail and the
	// engine must keep those rows at HI-REF.
	sys, _ := newSystem(t, 3e-2)
	tr := &trace.Trace{Duration: 20 * q}
	for p := uint32(0); p < 200; p++ {
		tr.Events = append(tr.Events, trace.Event{Page: p, At: trace.Microseconds(p) * 991})
	}
	tr.Sort()
	rep, err := sys.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TestsFailed == 0 {
		t.Skip("no failing content drawn for this seed; cannot exercise mitigation path")
	}
	if sys.DetectedFailures() == 0 {
		t.Error("failed tests but no detected failing cells recorded")
	}
	if got := sys.UndetectedFailures(); got != 0 {
		t.Errorf("undetected failures = %d, want 0", got)
	}
	// Mitigated rows must not have contributed LO-REF time... unless
	// they were re-tested after a later write with friendlier content;
	// with single writes per page, failed rows stay at HI-REF, so the
	// reduction must sit below the upper bound.
	if rep.RefreshReduction() >= rep.UpperBoundReduction() {
		t.Errorf("reduction %v not below upper bound %v despite mitigated rows",
			rep.RefreshReduction(), rep.UpperBoundReduction())
	}
}

func TestSystemHiRefIsUnconditionallySafe(t *testing.T) {
	// A trace that hammers pages with rewrites keeps everything at
	// HI-REF; the audit must stay clean no matter the content.
	sys, _ := newSystem(t, 5e-2)
	tr := &trace.Trace{Duration: 6 * q}
	for k := trace.Microseconds(0); k < 6; k++ {
		for p := uint32(0); p < 64; p++ {
			tr.Events = append(tr.Events, trace.Event{Page: p, At: k*q + trace.Microseconds(p)})
		}
	}
	tr.Sort()
	rep, err := sys.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.UndetectedFailures(); got != 0 {
		t.Errorf("undetected failures at HI-REF = %d, want 0", got)
	}
	if rep.LoRefTime != 0 {
		t.Errorf("rewrite-heavy trace reached LO-REF for %v us", rep.LoRefTime)
	}
}

// twoRoundTrace writes every page once early and once again late — the
// second round changes aggressor content under neighbours that were
// already tested clean.
func twoRoundTrace(pages uint32) *trace.Trace {
	tr := &trace.Trace{Duration: 20 * q}
	for p := uint32(0); p < pages; p++ {
		tr.Events = append(tr.Events, trace.Event{Page: p, At: trace.Microseconds(p) * 977})
		tr.Events = append(tr.Events, trace.Event{Page: p, At: 10*q + trace.Microseconds(p)*977})
	}
	tr.Sort()
	return tr
}

// A cell's failure depends on the content of its physical neighbours,
// so a write voids the clean verdict of a physical neighbour at LO-REF,
// and System re-tests it. In twoRoundTrace's second round 29 writes
// each void a neighbour's clean verdict; none finds a test in flight.
// Under the new neighbour content 3 of those rows hold a cell that
// fails within the LO-REF window. The re-test pulls them back to
// HI-REF, and the audit finds no escape; with the re-test loop removed,
// the same run audits 3 escaped cells. This is the DESIGN.md §5a
// finding made executable.
func TestNeighborRetestClosesCrossRowEscapes(t *testing.T) {
	reg := obs.NewRegistry()
	var sys *System
	exposed := 0 // re-tested rows that fail under the new neighbour content
	atRetest := obs.ObserverFunc(func(e obs.Event) {
		if e.Kind == obs.KindNeighborRetest {
			addr := sys.geom.AddressOfIndex(int(e.Aux))
			if len(sys.model.AppendFailingCells(nil, sys.mod, addr, sys.cfg.LoRef)) > 0 {
				exposed++
			}
		}
	})
	sys, _ = newSystem(t, 2e-2, WithObserver(obs.Tee(obs.NewMetrics(reg), atRetest)))
	if _, err := sys.Run(twoRoundTrace(100)); err != nil {
		t.Fatal(err)
	}
	if got := sys.UndetectedFailures(); got != 0 {
		t.Errorf("escapes = %d, want 0", got)
	}
	for name, want := range map[string]int64{
		"memcon_neighbor_retests_total": 29,
		"memcon_tests_voided_total":     0,
	} {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if exposed != 3 {
		t.Errorf("%d re-tested rows fail under the new neighbour content, want 3", exposed)
	}
}
