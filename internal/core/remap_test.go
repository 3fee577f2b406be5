package core

import (
	"testing"

	"memcon/internal/trace"
)

// With a dense weak-cell population and single-write pages, some tests
// fail; remap mitigation converts those permanently-HI rows into LO-REF
// rows backed by spares, improving the refresh reduction without
// breaking the reliability audit.
func TestRemapMitigationImprovesReduction(t *testing.T) {
	mkTrace := func() *trace.Trace {
		tr := &trace.Trace{Duration: 20 * q}
		for p := uint32(0); p < 200; p++ {
			tr.Events = append(tr.Events, trace.Event{Page: p, At: trace.Microseconds(p) * 991})
		}
		tr.Sort()
		return tr
	}
	plainSys, _ := newSystem(t, 3e-2)
	plain, err := plainSys.Run(mkTrace())
	if err != nil {
		t.Fatal(err)
	}
	if plain.TestsFailed == 0 {
		t.Skip("no failing tests for this seed; remap has nothing to do")
	}

	remapSys, _ := newSystem(t, 3e-2)
	if err := remapSys.EnableRemapMitigation(8, 1); err != nil {
		t.Fatal(err)
	}
	mitigated, err := remapSys.Run(mkTrace())
	if err != nil {
		t.Fatal(err)
	}
	if remapSys.RemappedRows() == 0 {
		t.Fatal("remap mitigation never fired despite failing tests")
	}
	if mitigated.RefreshReduction() <= plain.RefreshReduction() {
		t.Errorf("remap did not improve reduction: %v vs %v",
			mitigated.RefreshReduction(), plain.RefreshReduction())
	}
	if got := remapSys.UndetectedFailures(); got != 0 {
		t.Errorf("undetected failures with remap = %d, want 0", got)
	}
}

func TestRemapMitigationValidation(t *testing.T) {
	sys, _ := newSystem(t, 0)
	if err := sys.EnableRemapMitigation(0, 1); err == nil {
		t.Error("zero spares accepted")
	}
	if err := sys.EnableRemapMitigation(4, 0); err == nil {
		t.Error("zero threshold accepted")
	}
	if sys.RemappedRows() != 0 {
		t.Error("remapped rows nonzero without policy")
	}
}

// A remapped row that is rewritten stays safe: subsequent tests trust
// the screened spare and the row returns to LO-REF.
func TestRemappedRowSurvivesRewrites(t *testing.T) {
	sys, _ := newSystem(t, 5e-2)
	if err := sys.EnableRemapMitigation(8, 1); err != nil {
		t.Fatal(err)
	}
	// Rewrites change neighbour aggressor content; System's neighbour
	// re-test (see TestNeighborRetestClosesCrossRowEscapes) is what
	// guarantees zero escapes on multi-round traces.
	tr := &trace.Trace{Duration: 30 * q}
	for p := uint32(0); p < 100; p++ {
		tr.Events = append(tr.Events, trace.Event{Page: p, At: trace.Microseconds(p) * 701})
		tr.Events = append(tr.Events, trace.Event{Page: p, At: 10*q + trace.Microseconds(p)*701})
	}
	tr.Sort()
	rep, err := sys.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if sys.RemappedRows() == 0 {
		t.Skip("no remaps for this seed")
	}
	if got := sys.UndetectedFailures(); got != 0 {
		t.Errorf("undetected failures = %d, want 0", got)
	}
	_ = rep
}
