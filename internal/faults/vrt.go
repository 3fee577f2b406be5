package faults

import (
	"math/bits"
	"math/rand"
	"slices"

	"memcon/internal/dram"
)

// Variable retention time (VRT): real DRAM cells spontaneously toggle
// between retention states (the two-state "random telegraph" behaviour
// that motivates AVATAR, one of the paper's baselines [70]). A cell that
// profiled strong can later weaken — which is fatal for one-shot
// profiling (RAIDR) but handled naturally by MEMCON, because every
// content change triggers a fresh test of the row as it now behaves.
//
// VRTModel wraps a Model with per-cell retention toggling: each weak
// cell flips between its base retention and a degraded retention as a
// Poisson process in simulated time.

// VRTParams configures retention toggling.
type VRTParams struct {
	// ToggleRate is the expected number of state flips per cell per
	// simulated hour. Field studies report order 1e-2..1 for VRT-active
	// cells.
	ToggleRate float64
	// DegradeFactor scales retention in the degraded state (0..1).
	DegradeFactor float64
	// AffectedFraction is the fraction of weak cells that exhibit VRT.
	AffectedFraction float64
}

// VRTModel augments a fault model with time-varying retention.
type VRTModel struct {
	*Model
	params VRTParams
	rng    *rand.Rand
	// state maps (bank, physRow, physCol) of VRT-affected cells to
	// their degraded flag; cells enter lazily on first touch.
	state map[vrtKey]*vrtCell
	now   dram.Nanoseconds
}

type vrtKey struct{ bank, physRow, physCol int }

type vrtCell struct {
	affected   bool
	degraded   bool
	nextToggle dram.Nanoseconds
}

// NewVRTModel wraps a model.
func NewVRTModel(m *Model, params VRTParams, seed int64) *VRTModel {
	return &VRTModel{
		Model:  m,
		params: params,
		rng:    rand.New(rand.NewSource(seed)),
		state:  make(map[vrtKey]*vrtCell),
	}
}

// Advance moves simulated time forward; cells toggle lazily when
// queried, so Advance only records the clock.
func (v *VRTModel) Advance(to dram.Nanoseconds) {
	if to > v.now {
		v.now = to
	}
}

// meanTogglePeriod converts the per-hour rate into nanoseconds.
func (v *VRTModel) meanTogglePeriod() float64 {
	const hour = 3600 * float64(dram.Second)
	if v.params.ToggleRate <= 0 {
		return 0
	}
	return hour / v.params.ToggleRate
}

// cellState fetches (lazily creating) the VRT state of a cell and
// applies any toggles that elapsed since the last touch.
func (v *VRTModel) cellState(k vrtKey) *vrtCell {
	c, ok := v.state[k]
	if !ok {
		// A zero toggle rate means no cell ever toggles.
		c = &vrtCell{affected: v.meanTogglePeriod() > 0 && v.rng.Float64() < v.params.AffectedFraction}
		if c.affected {
			c.nextToggle = dram.Nanoseconds(v.rng.ExpFloat64() * v.meanTogglePeriod())
		}
		v.state[k] = c
	}
	if !c.affected {
		return c
	}
	for c.nextToggle <= v.now {
		c.degraded = !c.degraded
		step := dram.Nanoseconds(v.rng.ExpFloat64() * v.meanTogglePeriod())
		if step < 1 {
			step = 1 // exponential samples can round to zero; always advance
		}
		c.nextToggle += step
	}
	return c
}

// RetentionScaleAt returns the multiplicative retention factor of the
// cell at the current simulated time (1.0 or DegradeFactor).
func (v *VRTModel) RetentionScaleAt(bank, physRow, physCol int) float64 {
	c := v.cellState(vrtKey{bank, physRow, physCol})
	if c.degraded {
		return v.params.DegradeFactor
	}
	return 1.0
}

// FailingCellsVRT evaluates failures like Model.FailingCells but with
// the VRT retention scaling applied per cell: a cell in the degraded
// state fails at proportionally shorter idle times.
//
// RetentionScaleAt draws from the shared rng the first time it sees a
// cell, so the call order is part of the output: it is called once for
// every charged cell of the row, in physical-column order, and never
// skipped on the worst-case bound (a degraded cell fails below it).
func (v *VRTModel) FailingCellsVRT(mod *dram.Module, a dram.RowAddress, idle dram.Nanoseconds) []int {
	bf := v.banks[a.Bank]
	ni := &bf.neigh[a.Row]
	row := mod.RowRef(a)
	cb, candXor := ni.charge()
	type chargedCell struct {
		physCol, sysCol int
		retention       dram.Nanoseconds // static effective retention
	}
	var charged []chargedCell
	var adj adjRows
	for _, g := range bf.rowGroups(int32(a.Row)) {
		cand := (row[g.word] ^ candXor) & g.mask
		if cand == 0 {
			continue
		}
		if charged == nil {
			adj = v.adjacentRows(mod, a.Bank, ni)
		}
		du, dd := adj.discharged(g.word)
		for c := cand; c != 0; c &= c - 1 {
			bit := uint(bits.TrailingZeros64(c))
			p := &bf.packed[int(g.cellBase)+bits.OnesCount64(g.mask&(1<<bit-1))]
			charged = append(charged, chargedCell{
				physCol:   v.scr.PhysCol(int(p.sysCol)),
				sysCol:    int(p.sysCol),
				retention: v.effectiveRetention(p, p.stress(row, cb, du>>bit, dd>>bit)),
			})
		}
	}
	slices.SortFunc(charged, func(x, y chargedCell) int { return x.physCol - y.physCol })
	pr := v.PhysRowOfSys(a.Bank, a.Row)
	var failing []int
	for _, c := range charged {
		scale := v.RetentionScaleAt(a.Bank, pr, c.physCol)
		if idle > dram.Nanoseconds(float64(c.retention)*scale) {
			failing = append(failing, c.sysCol)
		}
	}
	return failing
}
