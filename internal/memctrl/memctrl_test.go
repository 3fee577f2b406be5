package memctrl

import (
	"math"
	"testing"

	"memcon/internal/dram"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	c := DefaultConfig()
	c.Banks = 0
	if err := c.Validate(); err == nil {
		t.Error("zero banks accepted")
	}
	c = DefaultConfig()
	c.RefreshPeriod = 0
	if err := c.Validate(); err == nil {
		t.Error("zero refresh period accepted")
	}
	c = DefaultConfig()
	c.RefreshPeriod = c.Density.TRFC()
	if err := c.Validate(); err == nil {
		t.Error("refresh period <= tRFC accepted (rank never available)")
	}
	c = DefaultConfig()
	c.TestsPerWindow = -1
	if err := c.Validate(); err == nil {
		t.Error("negative tests accepted")
	}
	c = DefaultConfig()
	c.TestsPerWindow = 10
	c.TestWindow = 0
	if err := c.Validate(); err == nil {
		t.Error("zero test window with tests accepted")
	}
}

func TestAccessRowHitVsMiss(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshPeriod = dram.Second // effectively no refresh interference after t=tRFC
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tm := cfg.Timing
	base := dram.Second / 2 // far from any refresh window

	// First access to a bank: row miss.
	done1, err := ctrl.Access(base, 0, 42, false)
	if err != nil {
		t.Fatal(err)
	}
	missLatency := tm.TRP + tm.TRCD + tm.CL + tm.TCCD
	if done1 != base+missLatency {
		t.Errorf("miss completion = %d, want %d", done1-base, missLatency)
	}
	// Same row again: hit, shorter.
	done2, err := ctrl.Access(done1, 0, 42, false)
	if err != nil {
		t.Fatal(err)
	}
	hitLatency := tm.CL + tm.TCCD
	if done2 != done1+hitLatency {
		t.Errorf("hit completion = %d, want %d", done2-done1, hitLatency)
	}
	st := ctrl.Stats()
	if st.RowHits != 1 || st.RowMisses != 1 || st.Requests != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAccessBankQueueing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshPeriod = dram.Second
	ctrl, _ := New(cfg)
	base := dram.Second / 2
	done1, _ := ctrl.Access(base, 3, 1, false)
	// Second request to the same bank arrives immediately: it queues
	// behind the first.
	done2, _ := ctrl.Access(base+1, 3, 1, false)
	if done2 <= done1 {
		t.Errorf("queued request finished at %d, not after %d", done2, done1)
	}
	// A request to a different bank at the same time does not queue.
	done3, _ := ctrl.Access(base+1, 4, 1, false)
	if done3 >= done2 {
		t.Errorf("different-bank request should not queue: %d vs %d", done3, done2)
	}
}

func TestAccessRefreshBlocking(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Density = dram.Density32Gb // tRFC = 1600 ns
	cfg.RefreshPeriod = 10000      // refresh windows at 0, 10 us, ...
	ctrl, _ := New(cfg)
	// Arrive in the middle of the first refresh window.
	done, err := ctrl.Access(800, 0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if done < 1600 {
		t.Errorf("request completed at %d, inside the refresh window", done)
	}
	// Arrive outside a window: no extra delay beyond service.
	done2, _ := ctrl.Access(5000, 1, 1, false)
	tm := cfg.Timing
	if done2 != 5000+tm.TRP+tm.TRCD+tm.CL+tm.TCCD {
		t.Errorf("unblocked request delayed: done at %d", done2)
	}
}

func TestAccessErrors(t *testing.T) {
	ctrl, _ := New(DefaultConfig())
	if _, err := ctrl.Access(0, -1, 0, false); err == nil {
		t.Error("negative bank accepted")
	}
	if _, err := ctrl.Access(0, 8, 0, false); err == nil {
		t.Error("out-of-range bank accepted")
	}
}

func TestWriteUsesCWL(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshPeriod = dram.Second
	ctrl, _ := New(cfg)
	base := dram.Second / 2
	doneW, _ := ctrl.Access(base, 0, 1, true)
	ctrl2, _ := New(cfg)
	doneR, _ := ctrl2.Access(base, 0, 1, false)
	tm := cfg.Timing
	if doneW-doneR != tm.CWL-tm.CL {
		t.Errorf("write/read completion delta = %d, want %d", doneW-doneR, tm.CWL-tm.CL)
	}
}

// TestRefreshEndWindows pins the REF schedule the access path waits
// on: windows are [k*period, k*period+tRFC), and a time outside every
// window is returned unchanged.
func TestRefreshEndWindows(t *testing.T) {
	ctrl, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, r := ctrl.cfg.RefreshPeriod, ctrl.trfc
	for _, c := range []struct{ at, want dram.Nanoseconds }{
		{0, r}, {r - 1, r}, {r, r}, {p - 1, p - 1},
		{p, p + r}, {3*p + r/2, 3*p + r}, {3*p + r, 3*p + r},
	} {
		if got := ctrl.refreshEnd(c.at); got != c.want {
			t.Errorf("refreshEnd(%d) = %d, want %d (period %d, tRFC %d)", c.at, got, c.want, p, r)
		}
	}
}

// TestRefreshBusyFraction checks the fraction of time the rank is
// blocked behind REF commands, tRFC over the REF period: the analytic
// first-order driver of the Fig. 15 speedups.
func TestRefreshBusyFraction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Density = dram.Density32Gb
	cfg.RefreshPeriod = dram.TREFI(dram.RefreshWindowAggressive) // 1953 ns
	ctrl, _ := New(cfg)
	got := float64(ctrl.trfc) / float64(ctrl.cfg.RefreshPeriod)
	want := 1600.0 / 1953.0
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("busy fraction = %v, want %v", got, want)
	}
	// This is the paper's core scaling argument: at 32 Gb and 16 ms
	// refresh, the rank is blocked for most of the time.
	if got < 0.5 {
		t.Errorf("32Gb @16ms busy fraction = %v, expected majority of time", got)
	}
}

func TestTestTrafficInjection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshPeriod = dram.Second
	cfg.TestsPerWindow = 64
	cfg.TestWindow = dram.Millisecond
	ctrl, _ := New(cfg)
	// Touch the controller late enough that several windows have passed.
	if _, err := ctrl.Access(5*dram.Millisecond, 0, 1, false); err != nil {
		t.Fatal(err)
	}
	st := ctrl.Stats()
	// Windows 0..5 ms inject 6 windows of 64 tests.
	if st.TestBusies < 5*64 {
		t.Errorf("test busies = %d, want >= %d", st.TestBusies, 5*64)
	}
}

func TestTestTrafficSlowsPrograms(t *testing.T) {
	run := func(tests int) dram.Nanoseconds {
		cfg := DefaultConfig()
		cfg.RefreshPeriod = dram.Second
		cfg.TestsPerWindow = tests
		cfg.TestWindow = dram.Millisecond
		cfg.Seed = 3
		ctrl, _ := New(cfg)
		var total dram.Nanoseconds
		at := dram.Nanoseconds(2 * dram.Millisecond)
		for i := 0; i < 2000; i++ {
			done, err := ctrl.Access(at, i%cfg.Banks, i, false)
			if err != nil {
				panic(err)
			}
			total += done - at
			at += 100
		}
		return total
	}
	clean := run(0)
	loaded := run(500)
	if loaded <= clean {
		t.Errorf("heavy test traffic did not increase total latency: %d vs %d", loaded, clean)
	}
}

func TestStretchedRefreshPeriod(t *testing.T) {
	p, err := StretchedRefreshPeriod(dram.RefreshWindowAggressive, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	// 75% reduction of a 16 ms-window refresh: period 4x = 7812 ns.
	if p != 4*dram.TREFI(dram.RefreshWindowAggressive) {
		t.Errorf("stretched period = %d, want %d", p, 4*dram.TREFI(dram.RefreshWindowAggressive))
	}
	if _, err := StretchedRefreshPeriod(dram.RefreshWindowAggressive, 1.0); err == nil {
		t.Error("reduction of 1.0 accepted")
	}
	if _, err := StretchedRefreshPeriod(dram.RefreshWindowAggressive, -0.1); err == nil {
		t.Error("negative reduction accepted")
	}
}

// Monotonicity: lowering the refresh rate (longer REF period) never
// hurts program latency.
func TestLongerRefreshPeriodNeverHurts(t *testing.T) {
	run := func(period dram.Nanoseconds) dram.Nanoseconds {
		cfg := DefaultConfig()
		cfg.Density = dram.Density32Gb
		cfg.RefreshPeriod = period
		ctrl, _ := New(cfg)
		var total dram.Nanoseconds
		at := dram.Nanoseconds(0)
		for i := 0; i < 5000; i++ {
			done, err := ctrl.Access(at, i%8, i/8, false)
			if err != nil {
				panic(err)
			}
			total += done - at
			at += 50
		}
		return total
	}
	aggressive := run(dram.TREFI(dram.RefreshWindowAggressive))
	relaxed := run(4 * dram.TREFI(dram.RefreshWindowAggressive))
	if relaxed > aggressive {
		t.Errorf("relaxed refresh increased latency: %d vs %d", relaxed, aggressive)
	}
	if aggressive <= relaxed {
		// At 32 Gb the difference must be substantial, not marginal.
		ratio := float64(aggressive) / float64(relaxed)
		if ratio < 1.5 {
			t.Errorf("latency ratio %v, expected large refresh penalty at 32Gb", ratio)
		}
	}
}
