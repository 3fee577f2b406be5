package costmodel

import (
	"math"
	"testing"

	"memcon/internal/dram"
)

func TestAppendixCosts(t *testing.T) {
	c := DefaultConfig()
	if got := c.Timing.RowCycle(); got != 534 {
		t.Errorf("RowCycle = %d, want 534", got)
	}
	if got := c.Timing.RefreshCost(); got != 39 {
		t.Errorf("RefreshCost = %d, want 39", got)
	}
	if got := c.TestCost(); got != 1068 {
		t.Errorf("Read and Compare = %d, want 1068", got)
	}
	c.Mode = CopyCompare
	if got := c.TestCost(); got != 1602 {
		t.Errorf("Copy and Compare = %d, want 1602", got)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	c := DefaultConfig()
	c.HiRefInterval = 0
	if err := c.Validate(); err == nil {
		t.Error("zero HI-REF accepted")
	}
	c = DefaultConfig()
	c.LoRefInterval = c.HiRefInterval
	if err := c.Validate(); err == nil {
		t.Error("LO-REF == HI-REF accepted")
	}
	for _, m := range []TestMode{-1, InDRAMCompare + 1, 99} {
		c = DefaultConfig()
		c.Mode = m
		if err := c.Validate(); err == nil {
			t.Errorf("unknown mode %d accepted", m)
		}
	}
}

// An accelerated test is a TestMode: a config that selects one validates
// like any other, so a bad interval is still refused under it.
func TestNewAcceleratedConfigValidates(t *testing.T) {
	for _, m := range []TestMode{RowCloneCopy, InDRAMCompare} {
		c := DefaultConfig()
		c.Mode = m
		if err := c.Validate(); err != nil {
			t.Errorf("%s rejected: %v", m, err)
		}
		c.LoRefInterval = c.HiRefInterval
		if err := c.Validate(); err == nil {
			t.Errorf("%s with LO-REF == HI-REF validated", m)
		}
		if _, err := c.MinWriteInterval(); err == nil {
			t.Errorf("%s with LO-REF == HI-REF accepted", m)
		}
	}
}

func TestTestModeString(t *testing.T) {
	if ReadCompare.String() != "Read and Compare" {
		t.Errorf("got %q", ReadCompare.String())
	}
	if CopyCompare.String() != "Copy and Compare" {
		t.Errorf("got %q", CopyCompare.String())
	}
	if TestMode(7).String() == "" {
		t.Error("unknown mode should still stringify")
	}
}

func TestAccelString(t *testing.T) {
	names := map[string]bool{}
	for _, m := range []TestMode{ReadCompare, CopyCompare, RowCloneCopy, InDRAMCompare} {
		names[m.String()] = true
	}
	if len(names) != 4 || names[""] {
		t.Errorf("accelerated mode names broken: %v", names)
	}
}

// The appendix's test latencies: 1068 ns (2 row cycles of 534 ns) and
// 1602 ns (3 row cycles), and below them footnote 6's accelerations:
// RowClone's in-DRAM copy (2*tRAS + tRP) plus one read-back row cycle,
// then an in-DRAM copy and an in-DRAM compare.
func TestTestCostPerMode(t *testing.T) {
	want := map[TestMode]dram.Nanoseconds{
		ReadCompare:   1068,
		CopyCompare:   1602,
		RowCloneCopy:  67 + 534,
		InDRAMCompare: 2 * 67,
	}
	c := DefaultConfig()
	for m, w := range want {
		c.Mode = m
		if got := c.TestCost(); got != w {
			t.Errorf("%s cost = %d, want %d", m, got, w)
		}
		if n := m.RowCycles(); n > 0 && c.TestCost() != dram.Nanoseconds(n)*c.Timing.RowCycle() {
			t.Errorf("%s cost %d is not its %d row cycles", m, c.TestCost(), n)
		}
	}
	if ReadCompare.RowCycles() != 2 || CopyCompare.RowCycles() != 3 {
		t.Errorf("row cycles = %d/%d, want 2/3", ReadCompare.RowCycles(), CopyCompare.RowCycles())
	}
	if RowCloneCopy.RowCycles() != 0 || InDRAMCompare.RowCycles() != 0 {
		t.Error("an accelerated mode has a row-cycle count")
	}
}

// Footnote 6: each acceleration makes the test cheaper than the
// unaccelerated Copy-and-Compare (1602 ns), in-DRAM compare most.
func TestAcceleratedTestCostOrdering(t *testing.T) {
	cost := func(m TestMode) dram.Nanoseconds {
		c := DefaultConfig()
		c.Mode = m
		return c.TestCost()
	}
	base, rc, full := cost(CopyCompare), cost(RowCloneCopy), cost(InDRAMCompare)
	if !(full < rc && rc < base && base == 1602) {
		t.Errorf("acceleration ordering broken: in-dram %d, rowclone %d, baseline %d", full, rc, base)
	}
}

// Cheaper tests amortize sooner: MinWriteInterval shrinks monotonically
// with acceleration, quantifying the paper's footnote-6 claim.
func TestAcceleratedMinWriteInterval(t *testing.T) {
	var mwis []dram.Nanoseconds
	for _, m := range []TestMode{CopyCompare, RowCloneCopy, InDRAMCompare} {
		c := DefaultConfig()
		c.Mode = m
		mwi, err := c.MinWriteInterval()
		if err != nil {
			t.Fatal(err)
		}
		mwis = append(mwis, mwi)
	}
	if mwis[0] != 864*dram.Millisecond {
		t.Errorf("Copy-and-Compare MWI = %d ms, want 864", mwis[0]/dram.Millisecond)
	}
	if !(mwis[2] <= mwis[1] && mwis[1] <= mwis[0]) {
		t.Errorf("MWI not monotone in acceleration: %v", mwis)
	}
	if mwis[2] >= mwis[0] {
		t.Error("full acceleration did not improve the crossover at all")
	}
}

// An accelerated mode's accumulated cost, and so its Fig. 6 curve,
// starts at that mode's own test cost and follows the same LO-REF
// schedule.
func TestAcceleratedMemconCostShape(t *testing.T) {
	for _, m := range []TestMode{RowCloneCopy, InDRAMCompare} {
		c := DefaultConfig()
		c.Mode = m
		test := c.TestCost()
		if got := c.MemconCost(-1); got != 0 {
			t.Errorf("%s: negative time cost = %d", m, got)
		}
		// One LO-REF window in: still no refresh charged (test window).
		if got := c.MemconCost(64 * dram.Millisecond); got != test {
			t.Errorf("%s: cost at 64ms = %d, want %d", m, got, test)
		}
		if got := c.MemconCost(128 * dram.Millisecond); got != test+39 {
			t.Errorf("%s: cost at 128ms = %d, want %d", m, got, test+39)
		}
		pts := c.Curve(64*dram.Millisecond, 16*dram.Millisecond)
		if pts[0].Time != 0 || pts[0].Memcon != test {
			t.Errorf("%s: curve starts at %+v, want the mode's own test cost %d", m, pts[0], test)
		}
	}
}

func TestMitigationCost(t *testing.T) {
	c := DefaultConfig()
	if got := c.MitigationCost(0); got != 0 {
		t.Errorf("MitigationCost(0) = %d", got)
	}
	if got := c.MitigationCost(-5); got != 0 {
		t.Errorf("MitigationCost(-5) = %d", got)
	}
	// Each mitigation op is one per-row refresh (39 ns at DDR3-1600).
	if got := c.MitigationCost(1000); got != 1000*39 {
		t.Errorf("MitigationCost(1000) = %d, want %d", got, 1000*39)
	}
}

func TestCostAccumulation(t *testing.T) {
	c := DefaultConfig()
	// At t=0: HI-REF has refreshed 0 times, MEMCON has paid the test.
	if got := c.HiRefCost(0); got != 0 {
		t.Errorf("HiRefCost(0) = %d", got)
	}
	if got := c.MemconCost(0); got != 1068 {
		t.Errorf("MemconCost(0) = %d, want 1068", got)
	}
	// After 64 ms: HI-REF refreshed 4 times (156 ns); MEMCON has not yet
	// refreshed — the first LO-REF window is the test window itself.
	if got := c.HiRefCost(64 * dram.Millisecond); got != 4*39 {
		t.Errorf("HiRefCost(64ms) = %d, want 156", got)
	}
	if got := c.MemconCost(64 * dram.Millisecond); got != 1068 {
		t.Errorf("MemconCost(64ms) = %d, want 1068", got)
	}
	// After 128 ms MEMCON has refreshed once.
	if got := c.MemconCost(128 * dram.Millisecond); got != 1068+39 {
		t.Errorf("MemconCost(128ms) = %d, want 1107", got)
	}
	// Negative time clamps to zero accumulation.
	if got := c.HiRefCost(-5); got != 0 {
		t.Errorf("HiRefCost(-5) = %d", got)
	}
	if got := c.MemconCost(-5); got != 0 {
		t.Errorf("MemconCost(-5) = %d", got)
	}
}

// The headline §3.3 result: MinWriteInterval is 560 ms for
// Read-and-Compare and 864 ms for Copy-and-Compare at 64 ms LO-REF, and
// 480/448 ms at 128/256 ms LO-REF.
func TestMinWriteIntervalMatchesPaper(t *testing.T) {
	cases := []struct {
		mode   TestMode
		loRef  dram.Nanoseconds
		wantMs int64
	}{
		{ReadCompare, 64 * dram.Millisecond, 560},
		{CopyCompare, 64 * dram.Millisecond, 864},
		{ReadCompare, 128 * dram.Millisecond, 480},
		{ReadCompare, 256 * dram.Millisecond, 448},
	}
	for _, tc := range cases {
		c := DefaultConfig()
		c.Mode = tc.mode
		c.LoRefInterval = tc.loRef
		got, err := c.MinWriteInterval()
		if err != nil {
			t.Fatalf("%s @%dms: %v", tc.mode, tc.loRef/dram.Millisecond, err)
		}
		gotMs := got / dram.Millisecond
		if gotMs != tc.wantMs {
			t.Errorf("%s @LO-REF %dms: MinWriteInterval = %d ms, want %d ms",
				tc.mode, tc.loRef/dram.Millisecond, gotMs, tc.wantMs)
		}
	}
}

func TestMinWriteIntervalInvalidConfig(t *testing.T) {
	c := DefaultConfig()
	c.LoRefInterval = c.HiRefInterval / 2
	if _, err := c.MinWriteInterval(); err == nil {
		t.Error("invalid config accepted")
	}
}

// At the crossover MEMCON is at most as expensive as HI-REF, and one
// HI-REF step earlier it is strictly more expensive.
func TestMinWriteIntervalIsExactCrossover(t *testing.T) {
	c := DefaultConfig()
	mwi, err := c.MinWriteInterval()
	if err != nil {
		t.Fatal(err)
	}
	if c.MemconCost(mwi) > c.HiRefCost(mwi) {
		t.Errorf("at MWI, MEMCON (%d) still costs more than HI-REF (%d)",
			c.MemconCost(mwi), c.HiRefCost(mwi))
	}
	before := mwi - c.HiRefInterval
	if c.MemconCost(before) <= c.HiRefCost(before) {
		t.Errorf("one step before MWI, MEMCON (%d) already cheaper than HI-REF (%d)",
			c.MemconCost(before), c.HiRefCost(before))
	}
}

// Longer LO-REF intervals amortize faster: MinWriteInterval is
// non-increasing in the LO-REF interval (448 <= 480 <= 560 in the paper).
func TestMinWriteIntervalMonotoneInLoRef(t *testing.T) {
	prev := int64(math.MaxInt64)
	for _, lo := range []dram.Nanoseconds{64, 128, 256, 512} {
		c := DefaultConfig()
		c.LoRefInterval = lo * dram.Millisecond
		got, err := c.MinWriteInterval()
		if err != nil {
			t.Fatal(err)
		}
		if int64(got) > prev {
			t.Errorf("MWI increased when LO-REF grew to %d ms", lo)
		}
		prev = int64(got)
	}
}

func TestCurve(t *testing.T) {
	c := DefaultConfig()
	pts := c.Curve(200*dram.Millisecond, 16*dram.Millisecond)
	if len(pts) != 13 { // 0..192 ms inclusive at 16 ms steps
		t.Fatalf("curve points = %d, want 13", len(pts))
	}
	if pts[0].Time != 0 || pts[0].Memcon != 1068 {
		t.Errorf("first point = %+v", pts[0])
	}
	// Both curves are non-decreasing.
	for i := 1; i < len(pts); i++ {
		if pts[i].HiRef < pts[i-1].HiRef || pts[i].Memcon < pts[i-1].Memcon {
			t.Errorf("cost decreased at point %d", i)
		}
	}
	// Default step falls back to HI-REF interval.
	pts2 := c.Curve(32*dram.Millisecond, 0)
	if len(pts2) != 3 {
		t.Errorf("default-step curve points = %d, want 3", len(pts2))
	}
}

func TestCopyCompareReservedRows(t *testing.T) {
	// Appendix example: 512 rows/bank, 8 banks, 262144 rows -> 1.5625%.
	got := CopyCompareReservedRows(512, 8, 262144)
	if math.Abs(got-0.015625) > 1e-12 {
		t.Errorf("reserved fraction = %v, want 0.015625", got)
	}
	if got := CopyCompareReservedRows(1, 1, 0); got != 0 {
		t.Errorf("zero rows should give 0, got %v", got)
	}
}
