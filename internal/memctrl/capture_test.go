package memctrl

import (
	"testing"

	"memcon/internal/core"
	"memcon/internal/dram"
)

func TestBusTracerCapturesWrites(t *testing.T) {
	cfg := DefaultConfig()
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tracer := NewBusTracer(cfg.Banks)
	ctrl.AttachTracer(tracer)

	at := dram.Nanoseconds(0)
	for i := 0; i < 100; i++ {
		at += dram.Microsecond
		if _, err := ctrl.Access(at, i%8, i/8, i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	writes := tracer.WriteTrace("captured", at)
	reads := tracer.ReadTrace("captured-reads", at)
	if len(writes.Events) != 50 || len(reads.Events) != 50 {
		t.Fatalf("captured %d writes / %d reads, want 50/50", len(writes.Events), len(reads.Events))
	}
	if err := writes.Validate(); err != nil {
		t.Fatalf("captured write trace invalid: %v", err)
	}
	if err := reads.Validate(); err != nil {
		t.Fatalf("captured read trace invalid: %v", err)
	}
}

// The closed loop the paper's methodology implies: simulate a system,
// capture its bus trace HMTT-style, and feed the captured trace straight
// into the MEMCON engine.
func TestCapturedTraceFeedsMemcon(t *testing.T) {
	cfg := DefaultConfig()
	ctrl, _ := New(cfg)
	tracer := NewBusTracer(cfg.Banks)
	ctrl.AttachTracer(tracer)

	// Synthetic system activity: one write-back per page, then long
	// idle — the page pattern PRIL predicts.
	at := dram.Nanoseconds(0)
	for i := 0; i < 64; i++ {
		at += 10 * dram.Microsecond
		if _, err := ctrl.Access(at, i%8, i, true); err != nil {
			t.Fatal(err)
		}
	}
	end := at + 10*dram.Second
	tr := tracer.WriteTrace("system", end)

	rep, err := core.RunWith(tr, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TestsCompleted == 0 {
		t.Error("captured trace produced no MEMCON tests")
	}
	if rep.RefreshReduction() <= 0 {
		t.Error("captured trace produced no refresh reduction")
	}
}
