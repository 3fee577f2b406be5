package costmodel

import (
	"fmt"

	"memcon/internal/dram"
)

// Budget prices operations in energy, the benefit the paper claims but
// does not quantify, with a standard IDD-style model: per-operation
// energies (nanojoules) and background power (milliwatts) for one rank.
// Absolute joules depend on the device; the experiments report ratios
// between policies, which are robust to the calibration. A test moves
// two or three full rows (hundreds of column accesses) while a refresh
// is one internal activate/precharge, so the energy crossover lies
// several times beyond the latency one.
type Budget struct {
	// ActPreNJ is the energy of one activate+precharge pair.
	ActPreNJ float64
	// ReadNJ is the energy of one cache-block column access.
	ReadNJ float64
	// RefreshNJ is the energy to refresh one row (an internal
	// activate+precharge, slightly cheaper than a demand activation).
	RefreshNJ float64
	// BackgroundMW is standby power, charged for the full duration.
	BackgroundMW float64
}

// DDR3Budget returns representative DDR3 rank energies.
func DDR3Budget() Budget {
	return Budget{ActPreNJ: 20, ReadNJ: 6, RefreshNJ: 16, BackgroundMW: 110}
}

// Validate reports an error for unusable budgets.
func (b Budget) Validate() error {
	if b.ActPreNJ < 0 || b.ReadNJ < 0 || b.RefreshNJ < 0 || b.BackgroundMW < 0 {
		return fmt.Errorf("costmodel: negative budget entries: %+v", b)
	}
	return nil
}

// Tally counts the priced operations of one run.
type Tally struct {
	// RefreshOps counts per-row refreshes, regular or mitigation.
	RefreshOps float64
	// TestRowCycles counts the full row cycles MEMCON's tests moved
	// through the channel (TestMode.RowCycles per test).
	TestRowCycles int64
	// Duration charges background power.
	Duration dram.Nanoseconds
}

// EnergyBreakdown is a tally's energy split, in millijoules.
type EnergyBreakdown struct {
	RefreshMJ    float64
	TestingMJ    float64
	BackgroundMJ float64
}

// Total returns the sum of all components.
func (e EnergyBreakdown) Total() float64 {
	return e.RefreshMJ + e.TestingMJ + e.BackgroundMJ
}

// rowCycleNJ is the energy of one test row cycle: an activation plus a
// row of column reads (a write's energy differs marginally).
func (c Config) rowCycleNJ(b Budget) float64 {
	return b.ActPreNJ + float64(c.Timing.BlocksPerRow)*b.ReadNJ
}

// testEnergyNJ returns the energy of one test in the configured mode:
// its row cycles, each priced by rowCycleNJ. The accelerated modes have
// no row-cycle count and no energy price.
func (c Config) testEnergyNJ(b Budget) (float64, error) {
	cycles := c.Mode.RowCycles()
	if cycles == 0 {
		return 0, fmt.Errorf("costmodel: no energy price for a %s test", c.Mode)
	}
	return float64(cycles) * c.rowCycleNJ(b), nil
}

// Energy prices a tally under budget b.
func (c Config) Energy(b Budget, t Tally) (EnergyBreakdown, error) {
	if err := b.Validate(); err != nil {
		return EnergyBreakdown{}, err
	}
	if t.Duration < 0 {
		return EnergyBreakdown{}, fmt.Errorf("costmodel: negative duration %d", t.Duration)
	}
	const nj2mj = 1e-6
	return EnergyBreakdown{
		RefreshMJ: t.RefreshOps * b.RefreshNJ * nj2mj,
		TestingMJ: float64(t.TestRowCycles) * c.rowCycleNJ(b) * nj2mj,
		// 1 mW = 1e-9 mJ/ns, so mW * ns * 1e-9 = mJ.
		BackgroundMJ: b.BackgroundMW * float64(t.Duration) * 1e-9,
	}, nil
}

// EnergyMinWriteInterval returns the smallest interval between writes
// at which testing saves energy versus staying at HI-REF: the test's
// energy must be repaid by the refresh operations eliminated while the
// row runs at LO-REF instead of HI-REF.
func (c Config) EnergyMinWriteInterval(b Budget) (dram.Nanoseconds, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if err := b.Validate(); err != nil {
		return 0, err
	}
	if b.RefreshNJ <= 0 {
		return 0, fmt.Errorf("costmodel: refresh energy must be positive, got %v", b.RefreshNJ)
	}
	test, err := c.testEnergyNJ(b)
	if err != nil {
		return 0, err
	}
	return c.crossover(test, b.RefreshNJ)
}
