// Package disturb models read-disturb (RowHammer) failures — the second
// failure mechanism of the fault stack, co-simulated with retention
// behind the faults.Mechanism interface. Where retention asks "how long
// was the row idle?", disturb asks "how often were the row's physical
// neighbours activated inside the refresh window?": repeated aggressor
// activations couple charge out of victim cells, and a victim flips once
// the window's hammer count exceeds its threshold (HCfirst in the
// RowHammer literature).
//
// The model shares the retention model's silicon: victim rows anchor to
// the same physical-row space (so aggressor→victim resolution reuses
// faults.Model.NeighborSysRows), and charge orientation comes from the
// same true-/anti-cell layout — a victim cell flips only while storing
// its charged value, which makes disturb failures content-dependent
// exactly like retention failures.
package disturb

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"memcon/internal/dram"
	"memcon/internal/faults"
)

// neverFlips is the per-row threshold sentinel for rows without victim
// cells: no realizable hammer count reaches it.
const neverFlips = int64(math.MaxInt64)

// Params configures the read-disturb model.
type Params struct {
	// VictimRowFraction is the probability that a physical row holds at
	// least one hammer-susceptible cell. DDR3-era parts show on the
	// order of a percent of rows with below-spec thresholds.
	VictimRowFraction float64
	// HCFirstFloor is the minimum per-row hammer threshold (the most
	// susceptible victims). 22.4k single-sided activations is the
	// canonical worst case for DDR3; scaled silicon goes lower.
	HCFirstFloor int64
	// HCFirstCeil is the maximum sampled threshold; thresholds are drawn
	// log-uniformly in [floor, ceil], matching the heavy left tail of
	// measured HCfirst distributions.
	HCFirstCeil int64
	// CellsPerVictimMax bounds the victim cells per susceptible row.
	// Cells beyond the first take geometrically escalating thresholds,
	// which is what makes blast radius grow with the hammer count.
	CellsPerVictimMax int
	// CellSpread is the per-extra-cell threshold multiplier (>1): cell
	// k of a row flips at HCfirst*CellSpread^k.
	CellSpread float64
}

// DefaultParams returns a population calibrated for experiment-scale
// modules: roughly 2% of rows are victims with first-flip thresholds
// between 4k and 128k activations per refresh window.
func DefaultParams() Params {
	return Params{
		VictimRowFraction: 0.02,
		HCFirstFloor:      4_000,
		HCFirstCeil:       128_000,
		CellsPerVictimMax: 4,
		CellSpread:        1.8,
	}
}

// Validate reports an error for unusable parameters.
func (p Params) Validate() error {
	switch {
	case p.VictimRowFraction < 0 || p.VictimRowFraction > 1:
		return fmt.Errorf("disturb: VictimRowFraction %v outside [0,1]", p.VictimRowFraction)
	case p.HCFirstFloor <= 0:
		return fmt.Errorf("disturb: HCFirstFloor must be positive, got %d", p.HCFirstFloor)
	case p.HCFirstCeil < p.HCFirstFloor:
		return fmt.Errorf("disturb: HCFirstCeil %d below floor %d", p.HCFirstCeil, p.HCFirstFloor)
	case p.CellsPerVictimMax < 1:
		return fmt.Errorf("disturb: CellsPerVictimMax must be at least 1, got %d", p.CellsPerVictimMax)
	case p.CellSpread <= 1:
		return fmt.Errorf("disturb: CellSpread must exceed 1, got %v", p.CellSpread)
	}
	return nil
}

// victimCell is one hammer-susceptible cell: it flips once the window's
// hammer count exceeds its threshold, provided it currently stores the
// row's charged value.
type victimCell struct {
	sysCol    int32
	threshold int64
}

// bankVictims is one bank's victim population in CSR form over system
// rows: the victim cells of system row r are
// cells[offsets[r]:offsets[r+1]], sorted by system column.
type bankVictims struct {
	offsets []int32
	cells   []victimCell
	// thrBySysRow[r] is the minimum threshold over row r's victim cells
	// (neverFlips when the row has none): RowVulnerable is one compare.
	thrBySysRow []int64
	// victimRows lists, in ascending order, the system rows holding at
	// least one victim cell; victimThresholds is parallel to it.
	victimRows       []int32
	victimThresholds []int64
}

// Model is the read-disturb failure model for one chip. Like
// faults.Model it is deterministic in (silicon, seed, params), built
// eagerly, immutable afterwards, and safe for concurrent readers.
type Model struct {
	fm     *faults.Model
	geom   dram.Geometry
	seed   uint64
	params Params
	banks  []*bankVictims
}

// disturbStream decorrelates the victim sampling RNG from the retention
// model's weak-cell stream (which hashes the seed with the same
// golden-ratio constant): the two populations must be independent draws
// over the same silicon.
const disturbStream = 0x7d15a57ab1e5d00d

// NewModel samples the victim population over the silicon described by
// the retention model. The seed is hashed with a disturb-specific
// stream constant, so retention and disturb populations are independent
// even when built from the same chip seed.
func NewModel(fm *faults.Model, seed uint64, params Params) (*Model, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	geom := fm.Geometry()
	m := &Model{
		fm:     fm,
		geom:   geom,
		seed:   seed,
		params: params,
		banks:  make([]*bankVictims, geom.BanksPerChip),
	}
	for b := 0; b < geom.BanksPerChip; b++ {
		m.banks[b] = m.buildBank(b)
	}
	return m, nil
}

// buildBank samples one bank's victims with the weak-cell machinery's
// RNG idiom (deterministic per-bank source, distinct placement,
// log-uniform severity draw) over PHYSICAL rows, then compiles them
// into system-row CSR form through the retention model's permutation.
func (m *Model) buildBank(b int) *bankVictims {
	rng := rand.New(rand.NewSource(int64(m.seed ^ disturbStream ^ uint64(b)*0x9e3779b97f4a7c15)))
	rows := m.geom.RowsPerBank
	n := int(math.Round(float64(rows) * m.params.VictimRowFraction))
	if n > rows {
		n = rows
	}
	seen := make(map[int]bool, n)
	physRows := make([]int, 0, n)
	for len(seen) < n {
		pr := rng.Intn(rows)
		if seen[pr] {
			continue
		}
		seen[pr] = true
		physRows = append(physRows, pr)
	}
	sort.Ints(physRows) // draw severities in a canonical row order

	lf := math.Log(float64(m.params.HCFirstFloor))
	lc := math.Log(float64(m.params.HCFirstCeil))
	type rowPop struct {
		sysRow int
		cells  []victimCell
	}
	pops := make([]rowPop, 0, len(physRows))
	for _, pr := range physRows {
		base := int64(math.Exp(lf + rng.Float64()*(lc-lf)))
		count := 1 + rng.Intn(m.params.CellsPerVictimMax)
		cells := make([]victimCell, 0, count)
		used := make(map[int32]bool, count)
		thr := float64(base)
		for k := 0; k < count; k++ {
			col := int32(rng.Intn(m.geom.ColsPerRow))
			if used[col] {
				continue // collision: the row just holds fewer cells
			}
			used[col] = true
			cells = append(cells, victimCell{sysCol: col, threshold: int64(thr)})
			thr *= m.params.CellSpread
		}
		sort.Slice(cells, func(i, j int) bool { return cells[i].sysCol < cells[j].sysCol })
		pops = append(pops, rowPop{sysRow: m.fm.SysRowOfPhys(b, pr), cells: cells})
	}
	sort.Slice(pops, func(i, j int) bool { return pops[i].sysRow < pops[j].sysRow })

	bv := &bankVictims{
		offsets:     make([]int32, rows+1),
		thrBySysRow: make([]int64, rows),
	}
	for r := range bv.thrBySysRow {
		bv.thrBySysRow[r] = neverFlips
	}
	next := 0
	for _, p := range pops {
		for next <= p.sysRow {
			bv.offsets[next] = int32(len(bv.cells))
			next++
		}
		bv.cells = append(bv.cells, p.cells...)
		min := neverFlips
		for _, c := range p.cells {
			if c.threshold < min {
				min = c.threshold
			}
		}
		bv.thrBySysRow[p.sysRow] = min
		bv.victimRows = append(bv.victimRows, int32(p.sysRow))
		bv.victimThresholds = append(bv.victimThresholds, min)
	}
	for ; next <= rows; next++ {
		bv.offsets[next] = int32(len(bv.cells))
	}
	return bv
}

// Model implements faults.Mechanism: failures depend on the window's
// hammer count and the stored content's charge state; idle time is
// irrelevant to disturbance.
var _ faults.Mechanism = (*Model)(nil)

// MechanismName implements faults.Mechanism.
func (m *Model) MechanismName() string { return "disturb" }

// AppendFailures implements faults.Mechanism: it appends the system
// columns of victim cells whose threshold the window's hammer count
// exceeds AND that currently store the row's charged value (discharged
// cells have no charge to couple away). Columns are appended in
// ascending system-column order, deterministically.
func (m *Model) AppendFailures(dst []int, mod *dram.Module, a dram.RowAddress, w faults.RowWindow) []int {
	bv := m.banks[a.Bank]
	if w.Hammer < bv.thrBySysRow[a.Row] {
		return dst
	}
	row := mod.RowRef(a)
	cb := m.fm.RowChargedBit(a.Bank, a.Row)
	for i := bv.offsets[a.Row]; i < bv.offsets[a.Row+1]; i++ {
		c := &bv.cells[i]
		if w.Hammer < c.threshold {
			continue
		}
		if uint8(row.Bit(int(c.sysCol))) != cb {
			continue // discharged: nothing to disturb
		}
		dst = append(dst, int(c.sysCol))
	}
	return dst
}

// RowVulnerable implements faults.Mechanism via the per-row minimum
// threshold: one comparison, no module access.
func (m *Model) RowVulnerable(a dram.RowAddress, w faults.RowWindow) bool {
	return w.Hammer >= m.banks[a.Bank].thrBySysRow[a.Row]
}

// VictimRows returns, in ascending system-row order, the rows of the
// bank holding at least one victim cell, together with each row's
// first-flip threshold. Both slices are owned by the model and must not
// be modified.
func (m *Model) VictimRows(bank int) ([]int32, []int64) {
	bv := m.banks[bank]
	return bv.victimRows, bv.victimThresholds
}

// RowThreshold returns the first-flip threshold of a system row
// (neverFlips-sized when the row holds no victim cells; use VictimRows
// to enumerate finite thresholds).
func (m *Model) RowThreshold(a dram.RowAddress) int64 {
	return m.banks[a.Bank].thrBySysRow[a.Row]
}

// CellThresholds returns the per-cell flip thresholds of a system row
// in ascending system-column order — the row's blast-radius staircase:
// the number of entries at or below a hammer count is the row's maximum
// flipped-cell count at that count.
func (m *Model) CellThresholds(a dram.RowAddress) []int64 {
	bv := m.banks[a.Bank]
	var out []int64
	for i := bv.offsets[a.Row]; i < bv.offsets[a.Row+1]; i++ {
		out = append(out, bv.cells[i].threshold)
	}
	return out
}

// VictimCellCount returns the number of victim cells in the bank.
func (m *Model) VictimCellCount(bank int) int { return len(m.banks[bank].cells) }

// Aggressors returns the system rows whose activations hammer the given
// victim row — its physical neighbours, resolved through the retention
// model's permutation tables (the silicon is shared, so adjacency is
// identical for both mechanisms).
func (m *Model) Aggressors(a dram.RowAddress) []dram.RowAddress {
	return m.fm.NeighborSysRows(a)
}

// Geometry returns the model's geometry.
func (m *Model) Geometry() dram.Geometry { return m.geom }
