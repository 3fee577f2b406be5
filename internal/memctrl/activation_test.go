package memctrl

import (
	"testing"

	"memcon/internal/dram"
	"memcon/internal/refresh"
)

func trackedConfig() Config {
	cfg := DefaultConfig()
	cfg.Rows = 64
	return cfg
}

// TestAccessActivationAccounting: every row miss is one tracked ACT,
// row hits are free, and WindowActivations attributes counts per row.
func TestAccessActivationAccounting(t *testing.T) {
	c, err := New(trackedConfig())
	if err != nil {
		t.Fatal(err)
	}
	at := dram.Nanoseconds(0)
	access := func(bank, row int) {
		done, err := c.Access(at, bank, row, false)
		if err != nil {
			t.Fatal(err)
		}
		at = done
	}
	access(0, 5) // miss
	access(0, 5) // hit
	access(0, 5) // hit
	access(0, 9) // miss
	access(0, 5) // miss (9 closed 5)
	access(1, 5) // miss, other bank
	s := c.Stats()
	if s.Activations != 4 {
		t.Fatalf("Activations = %d, want 4", s.Activations)
	}
	if s.TestActivations != 0 {
		t.Fatalf("TestActivations = %d, want 0", s.TestActivations)
	}
	if total, test := c.WindowActivations(0, 5); total != 2 || test != 0 {
		t.Fatalf("WindowActivations(0,5) = %d,%d; want 2,0", total, test)
	}
	if total, _ := c.WindowActivations(0, 9); total != 1 {
		t.Fatalf("WindowActivations(0,9) = %d, want 1", total)
	}
	if total, _ := c.WindowActivations(1, 5); total != 1 {
		t.Fatalf("WindowActivations(1,5) = %d, want 1", total)
	}
	if s.MaxRowActivations != 2 {
		t.Fatalf("MaxRowActivations = %d, want 2", s.MaxRowActivations)
	}
	// Rows outside the tracked space are served but not counted.
	if _, err := c.Access(at, 0, c.cfg.Rows+3, false); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Activations; got != 4 {
		t.Fatalf("untracked row counted: Activations = %d, want 4", got)
	}
}

// TestTrackingDisabledByDefault: with Rows 0 nothing is counted and
// WindowActivations reports zeros.
func TestTrackingDisabledByDefault(t *testing.T) {
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Access(0, 0, 7, false); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Activations != 0 || s.MaxRowActivations != 0 {
		t.Fatalf("tracking disabled but stats populated: %+v", s)
	}
	if total, test := c.WindowActivations(0, 7); total != 0 || test != 0 {
		t.Fatalf("WindowActivations = %d,%d; want 0,0", total, test)
	}
}

// TestInjectedTestsCountAsHammer: MEMCON's own probes are ACTs — each
// injected Read-and-Compare test contributes one test-attributable
// activation per row cycle, two in all — and enabling tracking must not
// change the latency-visible schedule (the test-row draw uses a
// separate RNG stream).
func TestInjectedTestsCountAsHammer(t *testing.T) {
	cfg := trackedConfig()
	cfg.TestsPerWindow = 128
	cfg.TestWindow = 64 * dram.Millisecond

	plain := cfg
	plain.Rows = 0
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(plain)
	if err != nil {
		t.Fatal(err)
	}
	at := dram.Nanoseconds(0)
	for i := 0; i < 2000; i++ {
		da, err := a.Access(at, i%cfg.Banks, i%cfg.Rows, false)
		if err != nil {
			t.Fatal(err)
		}
		db, err := b.Access(at, i%cfg.Banks, i%cfg.Rows, false)
		if err != nil {
			t.Fatal(err)
		}
		if da != db {
			t.Fatalf("request %d: tracking changed completion time %d vs %d", i, da, db)
		}
		at = da + 50*dram.Microsecond
	}
	sa, sb := a.Stats(), b.Stats()
	if sa.TestBusies != sb.TestBusies {
		t.Fatalf("tracking changed test schedule: %d vs %d busies", sa.TestBusies, sb.TestBusies)
	}
	if sa.TestBusies == 0 {
		t.Fatal("no tests injected; lengthen the run")
	}
	if want := sa.TestBusies * 2; sa.TestActivations != want {
		t.Fatalf("TestActivations = %d, want %d (%d tests x 2 cycles)",
			sa.TestActivations, want, sa.TestBusies)
	}
	if sa.Activations <= sa.TestActivations {
		t.Fatalf("program misses missing from Activations: %d total, %d test", sa.Activations, sa.TestActivations)
	}
}

// TestWindowResetBoundary: a row's per-window count resets once the
// activation stream crosses a hammer-window boundary (one full refresh
// cycle = RefreshPeriod*8192), and HammerWindows counts the crossings.
func TestWindowResetBoundary(t *testing.T) {
	cfg := trackedConfig()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	window := cfg.RefreshPeriod * 8192
	hammer := func(at dram.Nanoseconds, n int) {
		for i := 0; i < n; i++ {
			// Alternate with row 1 so every access to row 0 is a miss.
			if _, err := c.Access(at, 0, 1, false); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Access(at, 0, 0, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	hammer(window-1, 5) // last nanosecond of window 0
	if total, _ := c.WindowActivations(0, 0); total != 5 {
		t.Fatalf("window 0 count = %d, want 5", total)
	}
	if s := c.Stats(); s.HammerWindows != 0 {
		t.Fatalf("HammerWindows = %d before any crossing", s.HammerWindows)
	}

	hammer(window, 3) // first nanosecond of window 1: counter must reset
	if total, _ := c.WindowActivations(0, 0); total != 3 {
		t.Fatalf("count after boundary = %d, want 3 (reset)", total)
	}
	if s := c.Stats(); s.HammerWindows != 1 {
		t.Fatalf("HammerWindows = %d, want 1", s.HammerWindows)
	}
	// Cumulative stats keep the pre-reset history.
	if s := c.Stats(); s.Activations != 16 || s.MaxRowActivations != 5 {
		t.Fatalf("cumulative stats %d/%d, want 16 activations, max 5", s.Activations, s.MaxRowActivations)
	}

	// A row untouched since an earlier window reads zero even without an
	// intervening activation of that row.
	hammer(window-1+3*window, 1) // jump to window 3
	if total, _ := c.WindowActivations(0, 1); total != 1 {
		t.Fatalf("row 1 count in window 3 = %d, want 1", total)
	}
	if s := c.Stats(); s.HammerWindows != 3 {
		t.Fatalf("HammerWindows = %d, want 3 (crossed two more)", s.HammerWindows)
	}
}

// TestMitigationAccounting: PRAC issues exactly 2 ops every threshold-th
// activation of a row, priced into Stats.MitigationOps; the Validate
// coupling to Rows is enforced.
func TestMitigationAccounting(t *testing.T) {
	bad := DefaultConfig()
	var err error
	bad.Mitigation, err = refresh.NewPRAC(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.Validate(); err == nil {
		t.Fatal("mitigation without Rows accepted")
	}

	cfg := trackedConfig()
	cfg.Mitigation, err = refresh.NewPRAC(4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ { // 10 ACTs of row 0
		if _, err := c.Access(0, 0, 1, false); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Access(0, 0, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	// Row 0 and row 1 each saw 10 ACTs → two mitigations each → 8 ops.
	if got := c.Stats().MitigationOps; got != 8 {
		t.Fatalf("MitigationOps = %d, want 8", got)
	}
}
