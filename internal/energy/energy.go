// Package energy models DRAM energy consumption so that the refresh
// savings MEMCON delivers can be expressed in energy as well as
// performance. The paper's abstract and introduction claim energy
// benefits but the evaluation quantifies only performance; this package
// closes that gap with a standard IDD-style operation-energy model:
// per-operation energies for activate/precharge pairs, column reads and
// writes, per-row refresh, plus background (standby) power.
//
// Absolute joules depend on the device; the defaults are representative
// DDR3 rank-level figures. Every experiment built on this package
// reports RATIOS between policies, which are robust to the absolute
// calibration.
package energy

import (
	"fmt"

	"memcon/internal/dram"
)

// Budget holds per-operation energies (nanojoules) and background power
// (milliwatts) for one rank.
type Budget struct {
	// ActPreNJ is the energy of one activate+precharge pair.
	ActPreNJ float64
	// ReadNJ / WriteNJ are per-cache-block column access energies.
	ReadNJ  float64
	WriteNJ float64
	// RefreshPerRowNJ is the energy to refresh one row (an internal
	// activate+precharge, slightly cheaper than a demand activation).
	RefreshPerRowNJ float64
	// BackgroundMW is standby power, charged for the full duration.
	BackgroundMW float64
}

// DDR3Budget returns representative DDR3 rank energies.
func DDR3Budget() Budget {
	return Budget{
		ActPreNJ:        20,
		ReadNJ:          6,
		WriteNJ:         6.5,
		RefreshPerRowNJ: 16,
		BackgroundMW:    110,
	}
}

// Validate reports an error for unusable budgets.
func (b Budget) Validate() error {
	if b.ActPreNJ < 0 || b.ReadNJ < 0 || b.WriteNJ < 0 || b.RefreshPerRowNJ < 0 || b.BackgroundMW < 0 {
		return fmt.Errorf("energy: negative budget entries: %+v", b)
	}
	return nil
}

// Tally counts the operations of one run.
type Tally struct {
	Activates  int64
	Reads      int64
	Writes     int64
	RefreshOps float64
	// TestRowCycles counts full row reads/writes performed by MEMCON
	// testing (each costs an activate plus a row's worth of column
	// accesses).
	TestRowCycles int64
	// BlocksPerRow sizes a test row cycle in column accesses.
	BlocksPerRow int
	// Duration charges background power.
	Duration dram.Nanoseconds
}

// Breakdown is the computed energy split, in millijoules.
type Breakdown struct {
	ActPreMJ     float64
	ReadMJ       float64
	WriteMJ      float64
	RefreshMJ    float64
	TestingMJ    float64
	BackgroundMJ float64
}

// Total returns the sum of all components.
func (b Breakdown) Total() float64 {
	return b.ActPreMJ + b.ReadMJ + b.WriteMJ + b.RefreshMJ + b.TestingMJ + b.BackgroundMJ
}

// Compute derives the energy breakdown of a tally under a budget.
func Compute(budget Budget, t Tally) (Breakdown, error) {
	if err := budget.Validate(); err != nil {
		return Breakdown{}, err
	}
	if t.Duration < 0 {
		return Breakdown{}, fmt.Errorf("energy: negative duration %d", t.Duration)
	}
	const nj2mj = 1e-6
	blocks := t.BlocksPerRow
	if blocks <= 0 {
		blocks = 128
	}
	var out Breakdown
	out.ActPreMJ = float64(t.Activates) * budget.ActPreNJ * nj2mj
	out.ReadMJ = float64(t.Reads) * budget.ReadNJ * nj2mj
	out.WriteMJ = float64(t.Writes) * budget.WriteNJ * nj2mj
	out.RefreshMJ = t.RefreshOps * budget.RefreshPerRowNJ * nj2mj
	// One test row cycle = one activation + a row of column reads (or
	// writes; use the read energy, the difference is marginal).
	out.TestingMJ = float64(t.TestRowCycles) * (budget.ActPreNJ + float64(blocks)*budget.ReadNJ) * nj2mj
	// 1 mW = 1e-9 mJ/ns, so mW * ns * 1e-9 = mJ.
	out.BackgroundMJ = budget.BackgroundMW * float64(t.Duration) * 1e-9
	return out, nil
}
