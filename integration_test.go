package memcon

import (
	"bytes"
	"testing"

	"memcon/internal/trace"
)

// Full-stack integration: a generated workload runs through the
// full-fidelity MEMCON system — random content per write, neighbour
// re-testing, remap mitigation — against the silicon model, and the
// reliability guarantee holds end to end. AllSysMark rewrites rows next
// to ones at LO-REF or under test, so the neighbour re-test fires.
func TestIntegrationFullStack(t *testing.T) {
	geom := DefaultGeometry()
	geom.BanksPerChip = 2
	geom.RowsPerBank = 512
	chip, err := NewChip(geom, 99)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	sys, err := NewSystem(DefaultConfig(), chip, WithObserver(NewMetrics(reg)))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.EnableRemapMitigation(8, 2); err != nil {
		t.Fatal(err)
	}

	// A scaled-down application trace mapped onto the chip.
	app, err := AppByName("AllSysMark")
	if err != nil {
		t.Fatal(err)
	}
	tr := app.Generate(7, 0.05)
	// Clamp pages into the module.
	total := uint32(geom.TotalRows())
	for i := range tr.Events {
		tr.Events[i].Page %= total
	}
	tr.Sort()

	rep, err := sys.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TestsCompleted == 0 {
		t.Fatal("integration run completed no tests")
	}
	retests := reg.Counter("memcon_neighbor_retests_total", "").Value()
	if retests == 0 {
		t.Error("integration run re-tested no neighbour")
	}
	if got := sys.UndetectedFailures(); got != 0 {
		t.Errorf("reliability guarantee broken: %d undetected failures", got)
	}
	if rep.RefreshReduction() <= 0 {
		t.Errorf("no refresh reduction achieved: %v", rep.RefreshReduction())
	}
	if rep.RefreshReduction() >= rep.UpperBoundReduction() {
		t.Errorf("reduction %v exceeds the physical upper bound %v",
			rep.RefreshReduction(), rep.UpperBoundReduction())
	}
	t.Logf("integration: reduction %.1f%%, coverage %.1f%%, tests %d (failed %d), retests %d, remapped %d",
		100*rep.RefreshReduction(), 100*rep.LoRefCoverage(),
		rep.TestsCompleted, rep.TestsFailed, retests, sys.RemappedRows())
}

// Integration: the read-aware extension stacks with a real engine run.
func TestIntegrationReadAwareStacking(t *testing.T) {
	app, err := AppByName("FinalMaster")
	if err != nil {
		t.Fatal(err)
	}
	writes := app.Generate(11, 0.05)
	reads := app.GenerateReads(11, 0.05)
	rep, err := Run(writes, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ReadSkipAnalysis(reads, 64*1000*1000)
	if err != nil {
		t.Fatal(err)
	}
	combined := CombinedSavings(rep, rs)
	if combined < rep.RefreshReduction() {
		t.Errorf("stacking read-skip lowered savings: %v vs %v", combined, rep.RefreshReduction())
	}
	if combined > 1 {
		t.Errorf("combined savings %v exceeds 1", combined)
	}
}

// Integration: trace round-trips through both formats feed identical
// engine results.
func TestIntegrationTraceFormatsEquivalent(t *testing.T) {
	app, _ := AppByName("BlurMotion")
	tr := app.Generate(3, 0.03)
	repA, err := Run(tr, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip through the compact format.
	var buf bytes.Buffer
	if err := tr.WriteCompact(&buf); err != nil {
		t.Fatal(err)
	}
	tr2, err := trace.ReadCompact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	repB, err := Run(tr2, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if repA.RefreshOps != repB.RefreshOps || repA.TestsCompleted != repB.TestsCompleted {
		t.Error("round-tripped trace produced different engine results")
	}
}
