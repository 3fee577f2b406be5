// Package memctrl is an event-driven model of a single-channel DDR3
// memory system: per-bank row-buffer state machines, all-bank refresh
// that blocks the rank for tRFC every tREFI, and MEMCON's test-traffic
// injection. It supplies the memory-latency side of the performance
// evaluation (Fig. 15/16, Table 3): the first-order effects are the
// fraction of time the rank is unavailable behind REF commands (which
// grows with chip density through tRFC) and the bandwidth consumed by
// online testing.
package memctrl

import (
	"fmt"
	"math/rand"

	"memcon/internal/costmodel"
	"memcon/internal/dram"
	"memcon/internal/refresh"
)

// Config parameterizes the memory system.
type Config struct {
	// Timing supplies command latencies.
	Timing dram.Timing
	// Banks is the number of banks in the rank.
	Banks int
	// Density sets tRFC.
	Density dram.Density
	// RefreshPeriod is the interval between REF commands (tREFI). For an
	// all-rows 16 ms refresh window this is 1.95 µs; refresh-reduction
	// schemes stretch it (a 75% reduction means one REF per 7.8 µs).
	RefreshPeriod dram.Nanoseconds
	// TestsPerWindow injects MEMCON test traffic: each test is a
	// Read-and-Compare test, which occupies a random bank for its full
	// row cycles during every TestWindow.
	TestsPerWindow int
	// TestWindow is the period over which TestsPerWindow tests run
	// (64 ms in the paper).
	TestWindow dram.Nanoseconds
	// RefreshPostponeProb is the probability that a request arriving
	// inside a REF window does not wait because the controller had
	// postponed that REF to an idle period (elastic/flexible refresh
	// scheduling, which JEDEC permits for up to 8 REF commands). 0
	// models a rigid controller.
	RefreshPostponeProb float64
	// Seed drives test-traffic placement and any model randomness.
	Seed int64
	// Rows, when positive, enables per-row activation accounting for
	// RowHammer co-simulation: every row miss and every injected-test row
	// cycle counts as an ACT against its row within the current hammer
	// window (one full refresh cycle, RefreshPeriod*8192 — the span over
	// which every row is refreshed once, so per-row disturbance resets).
	// 0 — the default — disables tracking and adds no per-access work.
	Rows int
	// Mitigation, when non-nil, is a RowHammer mitigation policy
	// consulted on every tracked activation; the extra neighbour-refresh
	// operations it issues accumulate in Stats.MitigationOps for the
	// cost model to price. Requires Rows > 0.
	Mitigation refresh.Mitigation
}

// DefaultConfig returns a DDR3-1600, 8-bank, 8 Gb configuration with an
// aggressive all-rows 16 ms refresh and no test traffic.
func DefaultConfig() Config {
	return Config{
		Timing:        dram.DDR31600(),
		Banks:         8,
		Density:       dram.Density8Gb,
		RefreshPeriod: dram.TREFI(dram.RefreshWindowAggressive),
		TestWindow:    64 * dram.Millisecond,
		Seed:          1,
	}
}

// Validate reports an error for unusable configurations.
func (c Config) Validate() error {
	if c.Banks <= 0 {
		return fmt.Errorf("memctrl: bank count must be positive, got %d", c.Banks)
	}
	if c.RefreshPeriod <= 0 {
		return fmt.Errorf("memctrl: refresh period must be positive, got %d", c.RefreshPeriod)
	}
	if c.RefreshPeriod <= c.Density.TRFC() {
		return fmt.Errorf("memctrl: refresh period %d not above tRFC %d; rank would never be available",
			c.RefreshPeriod, c.Density.TRFC())
	}
	if c.TestsPerWindow < 0 {
		return fmt.Errorf("memctrl: tests per window cannot be negative, got %d", c.TestsPerWindow)
	}
	if c.TestsPerWindow > 0 && c.TestWindow <= 0 {
		return fmt.Errorf("memctrl: test window must be positive when tests are injected, got %d", c.TestWindow)
	}
	if c.RefreshPostponeProb < 0 || c.RefreshPostponeProb > 1 {
		return fmt.Errorf("memctrl: refresh postpone probability %v outside [0,1]", c.RefreshPostponeProb)
	}
	if c.Rows < 0 {
		return fmt.Errorf("memctrl: row count cannot be negative, got %d", c.Rows)
	}
	if c.Mitigation != nil && c.Rows == 0 {
		return fmt.Errorf("memctrl: mitigation %q requires activation tracking (Rows > 0)", c.Mitigation.Name())
	}
	return nil
}

// Stats aggregates controller activity.
type Stats struct {
	Requests     int64
	RowHits      int64
	RowMisses    int64
	TestBusies   int64
	TotalLatency dram.Nanoseconds

	// Activation accounting (populated only when Config.Rows > 0):
	// Activations counts tracked ACT commands (row misses plus injected
	// test row cycles), TestActivations the test-attributable subset.
	Activations     int64
	TestActivations int64
	// MaxRowActivations is the largest single-row activation count
	// observed within any hammer window — the worst hammer any row's
	// neighbours endured.
	MaxRowActivations int64
	// HammerWindows counts the hammer-window boundaries (full refresh
	// cycles) the activation stream crossed.
	HammerWindows int64
	// MitigationOps counts the extra neighbour-refresh operations the
	// configured mitigation policy issued.
	MitigationOps int64
}

// Controller simulates the memory system. It is single-goroutine: the
// system simulator serializes request arrivals by time.
type Controller struct {
	cfg  Config
	trfc dram.Nanoseconds

	bankBusyUntil []dram.Nanoseconds
	bankOpenRow   []int

	// Test traffic: tests are injected one by one in time order at an
	// average spacing of TestWindow/TestsPerWindow with jitter. Each
	// occupies its bank for testBusy, a Read-and-Compare test's latency.
	rng        *rand.Rand
	nextTestAt dram.Nanoseconds
	testBusy   dram.Nanoseconds

	// Activation accounting (Config.Rows > 0). Test-row placement draws
	// from its own RNG stream: c.rng's draw sequence is pinned by the
	// latency goldens and must not shift when tracking is enabled.
	testRNG   *rand.Rand
	windowLen dram.Nanoseconds
	curEpoch  int64
	// Per (bank, row): activation count and test-attributable subset
	// within the window stamped in actStamp (stamps store epoch+1 so the
	// zero value means "never activated").
	actCount  [][]int64
	testCount [][]int64
	actStamp  [][]int64

	// tracer, when attached, records every access (the HMTT analogue).
	tracer *BusTracer

	stats Stats
}

// testRowStream decorrelates test-row placement from the bank-selection
// and jitter stream (c.rng), which existing goldens pin draw-for-draw.
const testRowStream = 0x7e57b0b5c0ffee11

// New creates a controller.
func New(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:           cfg,
		trfc:          cfg.Density.TRFC(),
		testBusy:      costmodel.Config{Timing: cfg.Timing, Mode: costmodel.ReadCompare}.TestCost(),
		bankBusyUntil: make([]dram.Nanoseconds, cfg.Banks),
		bankOpenRow:   make([]int, cfg.Banks),
		rng:           rand.New(rand.NewSource(cfg.Seed)),
	}
	for i := range c.bankOpenRow {
		c.bankOpenRow[i] = -1
	}
	if cfg.Rows > 0 {
		c.testRNG = rand.New(rand.NewSource(int64(uint64(cfg.Seed) ^ testRowStream)))
		c.windowLen = cfg.RefreshPeriod * 8192
		c.actCount = make([][]int64, cfg.Banks)
		c.testCount = make([][]int64, cfg.Banks)
		c.actStamp = make([][]int64, cfg.Banks)
		for b := 0; b < cfg.Banks; b++ {
			c.actCount[b] = make([]int64, cfg.Rows)
			c.testCount[b] = make([]int64, cfg.Rows)
			c.actStamp[b] = make([]int64, cfg.Rows)
		}
	}
	return c, nil
}

// noteActivation records one tracked ACT of (bank, row) at time at,
// resetting the row's counters lazily when the activation falls in a
// later hammer window than the row's last, and consults the mitigation
// policy. Rows outside [0, Config.Rows) — possible for program traffic
// on a larger address space — are ignored.
func (c *Controller) noteActivation(at dram.Nanoseconds, bank, row int, test bool) {
	if c.actCount == nil || row < 0 || row >= c.cfg.Rows {
		return
	}
	epoch := int64(at / c.windowLen)
	if epoch > c.curEpoch {
		c.stats.HammerWindows += epoch - c.curEpoch
		c.curEpoch = epoch
	}
	stamp := epoch + 1
	if c.actStamp[bank][row] != stamp {
		c.actStamp[bank][row] = stamp
		c.actCount[bank][row] = 0
		c.testCount[bank][row] = 0
	}
	c.actCount[bank][row]++
	c.stats.Activations++
	if test {
		c.testCount[bank][row]++
		c.stats.TestActivations++
	}
	if n := c.actCount[bank][row]; n > c.stats.MaxRowActivations {
		c.stats.MaxRowActivations = n
	}
	if c.cfg.Mitigation != nil {
		c.stats.MitigationOps += int64(c.cfg.Mitigation.OnActivation(bank, row, c.actCount[bank][row]))
	}
}

// WindowActivations returns the addressed row's activation counts —
// total and test-attributable — within the current hammer window. Rows
// last activated in an earlier window (or never) report zero, matching
// the refresh cycle having restored their neighbours' charge. Without
// activation tracking it returns zeros.
func (c *Controller) WindowActivations(bank, row int) (total, test int64) {
	if c.actCount == nil || row < 0 || row >= c.cfg.Rows {
		return 0, 0
	}
	if c.actStamp[bank][row] != c.curEpoch+1 {
		return 0, 0
	}
	return c.actCount[bank][row], c.testCount[bank][row]
}

// Stats returns a snapshot of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// refreshEnd returns the earliest time at or after t when the rank is
// not blocked by a REF command. REF windows are
// [k*period, k*period+tRFC).
func (c *Controller) refreshEnd(t dram.Nanoseconds) dram.Nanoseconds {
	if t < 0 {
		return t
	}
	windowStart := t / c.cfg.RefreshPeriod * c.cfg.RefreshPeriod
	if t < windowStart+c.trfc {
		return windowStart + c.trfc
	}
	return t
}

// injectTests applies, in time order, every test whose start time has
// been reached. Tests are background traffic: each occupies a random
// bank for one Read-and-Compare test's latency; they do not wait for
// program-visible completion. With TestsPerWindow tests per TestWindow
// the average spacing is TestWindow/TestsPerWindow; spacing is jittered
// uniformly so tests do not beat against program access patterns.
func (c *Controller) injectTests(now dram.Nanoseconds) {
	if c.cfg.TestsPerWindow == 0 {
		return
	}
	spacing := c.cfg.TestWindow / dram.Nanoseconds(c.cfg.TestsPerWindow)
	if spacing < 1 {
		spacing = 1
	}
	for c.nextTestAt <= now {
		bank := c.rng.Intn(c.cfg.Banks)
		start := c.refreshEnd(maxNS(c.nextTestAt, c.bankBusyUntil[bank]))
		c.bankBusyUntil[bank] = start + c.testBusy
		c.bankOpenRow[bank] = -1 // the test closes whatever row was open
		c.stats.TestBusies++
		if c.actCount != nil {
			// MEMCON's own probes hammer the rows they test: each row
			// cycle of the test opens the row once, so a test is
			// its row cycles' ACTs of one tracked row.
			row := c.testRNG.Intn(c.cfg.Rows)
			for k := 0; k < costmodel.ReadCompare.RowCycles(); k++ {
				c.noteActivation(start, bank, row, true)
			}
		}
		// Jittered spacing in [0.5, 1.5) of the average.
		c.nextTestAt += spacing/2 + dram.Nanoseconds(c.rng.Int63n(int64(spacing)))
	}
}

func maxNS(a, b dram.Nanoseconds) dram.Nanoseconds {
	if a > b {
		return a
	}
	return b
}

// Access serves one program request arriving at time at to (bank, row)
// and returns its completion time. Requests must arrive in
// non-decreasing time order across the whole controller.
func (c *Controller) Access(at dram.Nanoseconds, bank, row int, write bool) (dram.Nanoseconds, error) {
	if bank < 0 || bank >= c.cfg.Banks {
		return 0, fmt.Errorf("memctrl: bank %d outside [0,%d)", bank, c.cfg.Banks)
	}
	c.injectTests(at)
	if c.tracer != nil {
		c.tracer.Record(at, bank, row, write)
	}

	ready := maxNS(at, c.bankBusyUntil[bank])
	start := ready
	if blocked := c.refreshEnd(ready); blocked > ready {
		// The rank is mid-REF; an elastic controller may have postponed
		// this REF to serve pending demand.
		if c.cfg.RefreshPostponeProb == 0 || c.rng.Float64() >= c.cfg.RefreshPostponeProb {
			start = blocked
		}
	}
	t := c.cfg.Timing
	var service dram.Nanoseconds
	if c.bankOpenRow[bank] == row {
		c.stats.RowHits++
		service = t.CL + t.TCCD
	} else {
		c.stats.RowMisses++
		service = t.TRP + t.TRCD + t.CL + t.TCCD
		c.bankOpenRow[bank] = row
		c.noteActivation(at, bank, row, false) // a row miss issues an ACT
	}
	if write {
		// Writes complete into the write queue; model the same bank
		// occupancy with CWL instead of CL.
		service += t.CWL - t.CL
	}
	done := start + service
	c.bankBusyUntil[bank] = done
	c.stats.Requests++
	c.stats.TotalLatency += done - at
	return done, nil
}

// StretchedRefreshPeriod returns the REF period that an all-rows refresh
// at baseWindow stretches to when a scheme eliminates the given fraction
// of refresh operations.
func StretchedRefreshPeriod(baseWindow dram.Nanoseconds, reduction float64) (dram.Nanoseconds, error) {
	if reduction < 0 || reduction >= 1 {
		return 0, fmt.Errorf("memctrl: reduction %v outside [0,1)", reduction)
	}
	base := dram.TREFI(baseWindow)
	return dram.Nanoseconds(float64(base) / (1 - reduction)), nil
}
