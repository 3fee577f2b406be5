// Package faults models data-dependent DRAM failures — the failure class
// MEMCON detects and mitigates. It plays the role of the silicon: it owns
// the vendor's physical view of the array (scrambled addresses, remapped
// columns, true-/anti-cell orientation) and decides which cells flip
// given the stored content and how long a row has been idle.
//
// # Physical model
//
// A small fraction of cells are "weak": their retention is close enough
// to the refresh window that cell-to-cell interference matters. Each weak
// cell has
//
//   - a base retention time, drawn log-uniformly from a window above the
//     characterization idle time (cells below it would fail with ANY
//     content; the paper notes those are trivially detected and excludes
//     them),
//   - coupling weights to its four physical neighbours (bitline
//     neighbours couple more strongly than wordline neighbours, per the
//     bitline-coupling literature the paper cites),
//   - an orientation: true cells store logical 1 as charge, anti cells
//     store logical 0 as charge, alternating in row pairs.
//
// A charged weak cell leaks faster when neighbouring cells are
// discharged (the interference condition); its effective retention is
// base*(1 - MaxStress*stress) where stress in [0,1] aggregates the
// discharged neighbours by coupling weight. The cell fails when its row
// stays idle longer than the effective retention. This reproduces the
// paper's observations: failures are content-dependent (Fig. 3), only a
// subset of all-pattern failures occur with program content (Fig. 4),
// and failure counts grow with the refresh interval.
//
// # Representation
//
// NewModel compiles each bank's weak cells once, into a bit-parallel
// index grouped by 64-bit word of the system row (see bankFaults).
// Every query — FailingCells, RowCanFail, AffectedNeighborRows and
// VRTModel.FailingCellsVRT — reads that one index.
package faults

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"memcon/internal/dram"
)

// neverFails is the per-row retention sentinel for rows without mapped
// weak cells: no finite idle time exceeds it.
const neverFails = dram.Nanoseconds(math.MaxInt64)

// Params configures the failure model.
type Params struct {
	// WeakCellFraction is the probability that a cell is weak
	// (coupling-sensitive). Typical silicon-inspired values are around
	// 1e-4..1e-3.
	WeakCellFraction float64
	// RetentionFloor is the minimum base retention of a weak cell. It
	// should sit at or above the characterization idle time so that no
	// cell fails content-independently.
	RetentionFloor dram.Nanoseconds
	// RetentionCeil is the maximum base retention of a weak cell.
	RetentionCeil dram.Nanoseconds
	// MaxStress is the maximum fractional retention degradation when all
	// neighbours aggress (0..1).
	MaxStress float64
	// BitlineWeight scales how much of the coupling budget goes to the
	// two same-row (bitline) neighbours versus the two adjacent-row
	// (wordline) neighbours. 0.7 means 70% bitline / 30% wordline.
	BitlineWeight float64
}

// DefaultParams returns parameters calibrated so that, with the default
// geometry and a 328 ms characterization idle (the paper's 4 s at 45 °C
// scaled to 85 °C), roughly 13-14% of rows contain at least one cell that
// fails under SOME data pattern, while typical program content triggers
// far fewer failures — the Fig. 4 regime.
func DefaultParams() Params {
	return Params{
		WeakCellFraction: 3.2e-4,
		RetentionFloor:   328 * dram.Millisecond,
		RetentionCeil:    8 * 328 * dram.Millisecond,
		MaxStress:        0.6,
		BitlineWeight:    0.7,
	}
}

// CharacterizationIdle is the idle time used by the paper's chip tests:
// 4 s at 45 °C, equivalent to 328 ms at 85 °C.
const CharacterizationIdle = 328 * dram.Millisecond

// ParamsForRefresh returns parameters scaled so that data-dependent
// failures matter exactly at the given LO-REF window: content-dependent
// failures occur within one LO-REF window for aggressive content, while
// the HI-REF state stays unconditionally safe PROVIDED the HI-REF
// window is shorter than loRef*(1-MaxStress). The guarantee is a
// property of the window ratio, not of the floor alone: with the floor
// at loRef and MaxStress 0.6, a fully-stressed floor cell retains for
// 0.4*loRef, so e.g. the shipped 64 ms LO-REF / 16 ms HI-REF pair
// keeps a 25.6 ms worst case above HI-REF with margin, but a HI-REF at
// or above 0.4*loRef would NOT be safe. TestParamsForRefreshHiRefSafe
// pins both sides of that boundary, and a core-side test pins the
// ratio for the default windows the full-fidelity system runs with.
func ParamsForRefresh(loRef dram.Nanoseconds) Params {
	p := DefaultParams()
	p.RetentionFloor = loRef
	p.RetentionCeil = 8 * loRef
	return p
}

// Validate reports an error for unusable parameters.
func (p Params) Validate() error {
	switch {
	case p.WeakCellFraction < 0 || p.WeakCellFraction > 1:
		return fmt.Errorf("faults: WeakCellFraction %v outside [0,1]", p.WeakCellFraction)
	case p.RetentionFloor <= 0:
		return fmt.Errorf("faults: RetentionFloor must be positive, got %d", p.RetentionFloor)
	case p.RetentionCeil < p.RetentionFloor:
		return fmt.Errorf("faults: RetentionCeil %d below floor %d", p.RetentionCeil, p.RetentionFloor)
	case p.MaxStress < 0 || p.MaxStress >= 1:
		return fmt.Errorf("faults: MaxStress %v outside [0,1)", p.MaxStress)
	case p.BitlineWeight < 0 || p.BitlineWeight > 1:
		return fmt.Errorf("faults: BitlineWeight %v outside [0,1]", p.BitlineWeight)
	}
	return nil
}

// weakCell holds the silicon attributes of one weak cell at a physical
// location. It is the sampling-time representation; NewModel compiles
// every mapped weak cell into the packed kernel (packedCell) and keeps
// no weakCell afterwards.
type weakCell struct {
	physRow, physCol int
	baseRetention    dram.Nanoseconds
	// w[0..3]: coupling weights for left, right, up, down neighbours;
	// they sum to 1.
	w [4]float64
}

// Model is the failure model for one chip. It is deterministic in
// (geometry, seed, params). All per-bank state is built eagerly by
// NewModel, so a Model is immutable afterwards and safe for concurrent
// readers without any warm-up call.
type Model struct {
	geom   dram.Geometry
	scr    *dram.Scrambler
	seed   uint64
	params Params

	// banks holds the packed per-bank fault kernels.
	banks []*bankFaults
	// sysRowOfPhys is the inverse row permutation per bank.
	sysRowOfPhys [][]int
	// physRowOfSys is the forward row permutation per bank, cached so
	// queries skip the scrambler's cycle-walking permutation.
	physRowOfSys [][]int32
	sysColOfPhys []int
}

// bankFaults is one bank's weak-cell population, held once, in the
// bit-parallel kernel's layout: the mapped weak cells grouped by the
// 64-bit word of their SYSTEM column, so one AND/XOR pass over a row
// word classifies 64 candidate cells at once.
type bankFaults struct {
	// minWorstBySysRow[r] is the minimum worstRetention over the mapped
	// weak cells of the physical row SYSTEM row r maps to (neverFails
	// when that row has none). Indexing by system row makes RowCanFail a
	// single comparison and keeps full-array scans walking this table
	// sequentially instead of through the scrambled row permutation.
	minWorstBySysRow []dram.Nanoseconds
	// weakRows lists, in ascending order, the system rows whose mapped
	// physical row holds at least one weak cell; weakFloors is parallel
	// to it, carrying that row's minWorstBySysRow value. Full-array
	// scans iterate this dense worklist instead of testing every row.
	weakRows   []int32
	weakFloors []dram.Nanoseconds
	// count is the sampled weak-cell total, including cells on
	// unmapped physical columns that never store data.
	count int

	// The groups of SYSTEM row r are groups[groupOff[r]:groupOff[r+1]],
	// in ascending word order, and a group's cells are
	// packed[cellBase:cellBase+popcount(mask)] in ascending
	// system-column (= bit) order. Indexing by system row — the order
	// full-array scans visit rows — lays groups and packed cells out as
	// one forward stream, so the scan's index loads ride the hardware
	// prefetcher instead of chasing the row permutation.
	groupOff []int32
	groups   []wordGroup
	packed   []packedCell
	// neigh caches, per SYSTEM row, the kernel's view of the row
	// permutation: the system rows of both physical neighbours and the
	// true-cell orientations of the row and its neighbours. Read in
	// scan order it is one sequential stream, replacing three random
	// permutation lookups per evaluated row.
	neigh []rowNeigh
}

// rowNeigh is one bank row's entry in bankFaults.neigh. upSys/dnSys
// are -1 when the physical row sits at the array edge.
type rowNeigh struct {
	upSys, dnSys int32
	flags        uint32
}

const (
	neighSelfTrue = 1 << iota // the row itself stores true cells
	neighUpTrue               // physical row above stores true cells
	neighDnTrue               // physical row below stores true cells
)

// wordGroup is the word-level index of the packed kernel: the weak
// cells of one physical row that share one 64-bit word of the system
// row buffer.
type wordGroup struct {
	// mask has a bit set at each weak cell's system-column bit.
	mask uint64
	// word is the row-word index (system column / 64).
	word int32
	// cellBase indexes the group's first cell in bankFaults.packed.
	cellBase int32
	// minWorst is the minimum worstRetention over the group's cells:
	// one compare rejects the whole word at low idle times.
	minWorst dram.Nanoseconds
}

// packedCell is the word-kernel view of one weak cell. The charge test
// is hoisted to the group mask; what remains per surviving candidate is
// the stress sum, with both bitline neighbours resolved to system
// columns of the victim's OWN row and both wordline neighbours read
// straight from the adjacent rows' words (they share the victim's
// column because the column swizzle is row-independent).
type packedCell struct {
	baseRetention dram.Nanoseconds
	// worstRetention is the effective retention under the worst
	// achievable stress (every existing neighbour aggressing) — the
	// pattern-independent bound RowCanFail tests against, and a cheap
	// per-cell reject for FailingCells (content stress never exceeds
	// the worst case, so idle <= worstRetention means "cannot fail").
	worstRetention dram.Nanoseconds
	// wL/wR/wU/wD are the left/right/up/down coupling weights (0 when
	// the neighbour is outside the array).
	wL, wR, wU, wD float64
	// lConstW/rConstW are the constant stress contributions of bitline
	// neighbours on unmapped physical columns (which store 0 forever:
	// they aggress iff this row's cells charge as 1).
	lConstW, rConstW float64
	// lCol/rCol are the bitline neighbours' system columns, or -1 when
	// unmapped or outside the array.
	lCol, rCol int32
	// sysCol is the cell's own system column.
	sysCol int32
}

// NewModel builds a failure model over the given geometry. The scrambler
// represents the same chip (it must be constructed with the same
// geometry); seed determines the weak-cell population.
func NewModel(geom dram.Geometry, scr *dram.Scrambler, seed uint64, params Params) (*Model, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	m := &Model{
		geom:         geom,
		scr:          scr,
		seed:         seed,
		params:       params,
		banks:        make([]*bankFaults, geom.BanksPerChip),
		sysRowOfPhys: make([][]int, geom.BanksPerChip),
		physRowOfSys: make([][]int32, geom.BanksPerChip),
	}
	// Inverse column table (shared by all banks).
	m.sysColOfPhys = make([]int, geom.PhysCols())
	for i := range m.sysColOfPhys {
		m.sysColOfPhys[i] = -1
	}
	for c := 0; c < geom.ColsPerRow; c++ {
		m.sysColOfPhys[scr.PhysCol(c)] = c
	}
	// Build every bank eagerly: the flat kernel is cheap to construct
	// (the population is sparse), and an immutable model removes the
	// lazy-initialization race first concurrent queries used to hit.
	for b := 0; b < geom.BanksPerChip; b++ {
		m.buildRowMaps(b)
		m.banks[b] = m.buildBank(b)
	}
	return m, nil
}

// buildRowMaps computes the forward and inverse row permutations of a
// bank.
func (m *Model) buildRowMaps(b int) {
	fwd := make([]int32, m.geom.RowsPerBank)
	inv := make([]int, m.geom.RowsPerBank)
	for r := 0; r < m.geom.RowsPerBank; r++ {
		pr := m.scr.PhysRow(b, r)
		fwd[r] = int32(pr)
		inv[pr] = r
	}
	m.physRowOfSys[b] = fwd
	m.sysRowOfPhys[b] = inv
}

// buildBank samples the weak-cell population of a bank and compiles it
// into the packed kernel. The population is sampled without per-cell
// hashing: the expected number of weak cells is drawn and distinct
// positions are placed uniformly, all from a deterministic per-bank RNG
// (the exact sampling sequence of the original map-based model, so
// populations are identical seed-for-seed).
func (m *Model) buildBank(b int) *bankFaults {
	rng := rand.New(rand.NewSource(int64(m.seed ^ uint64(b)*0x9e3779b97f4a7c15)))
	sites := m.geom.RowsPerBank * m.geom.PhysCols()
	n := int(math.Round(float64(sites) * m.params.WeakCellFraction))
	raw := make([]weakCell, 0, n)
	seen := make(map[int]bool, n)
	for len(seen) < n {
		pos := rng.Intn(sites)
		if seen[pos] {
			continue
		}
		seen[pos] = true
		pr := pos / m.geom.PhysCols()
		pc := pos % m.geom.PhysCols()
		raw = append(raw, m.makeWeakCell(rng, pr, pc))
	}
	// Positions are distinct, so the order is total and an unstable
	// sort gives the one order there is.
	slices.SortFunc(raw, func(a, b weakCell) int {
		if a.physRow != b.physRow {
			return cmp.Compare(a.physRow, b.physRow)
		}
		return cmp.Compare(a.physCol, b.physCol)
	})

	// Drop cells on unmapped physical columns (no data is stored there)
	// and span the rest by physical row: the mapped cells of physical
	// row pr are seeds[rowStart[pr]:rowStart[pr+1]]. The span exists
	// only while the packed kernel is compiled.
	rows := m.geom.RowsPerBank
	seeds := raw[:0]
	rowStart := make([]int32, rows+1)
	for _, wc := range raw {
		if m.sysColOfPhys[wc.physCol] >= 0 {
			seeds = append(seeds, wc)
			rowStart[wc.physRow+1]++
		}
	}
	for pr := 0; pr < rows; pr++ {
		rowStart[pr+1] += rowStart[pr]
	}

	// Emit rows in ascending SYSTEM row order (see the groupOff field
	// comment) by walking the row permutation here, once. Per row, the
	// cells are re-sorted by system column and split into one wordGroup
	// per 64-bit row word.
	bf := &bankFaults{
		minWorstBySysRow: make([]dram.Nanoseconds, rows),
		count:            n,
		groupOff:         make([]int32, rows+1),
		packed:           make([]packedCell, 0, len(seeds)),
		neigh:            make([]rowNeigh, rows),
	}
	for r := 0; r < rows; r++ {
		pr := int(m.physRowOfSys[b][r])
		ni := rowNeigh{upSys: -1, dnSys: -1}
		if m.trueCell(pr) {
			ni.flags |= neighSelfTrue
		}
		if pr > 0 {
			ni.upSys = int32(m.sysRowOfPhys[b][pr-1])
			if m.trueCell(pr - 1) {
				ni.flags |= neighUpTrue
			}
		}
		if pr+1 < rows {
			ni.dnSys = int32(m.sysRowOfPhys[b][pr+1])
			if m.trueCell(pr + 1) {
				ni.flags |= neighDnTrue
			}
		}
		bf.neigh[r] = ni
		row := seeds[rowStart[pr]:rowStart[pr+1]]
		// Distinct mapped columns have distinct system columns.
		slices.SortFunc(row, func(a, b weakCell) int {
			return cmp.Compare(m.sysColOfPhys[a.physCol], m.sysColOfPhys[b.physCol])
		})
		rowWorst := neverFails
		lastWord := int32(-1)
		for _, wc := range row {
			p := m.compilePacked(wc)
			if word := p.sysCol >> 6; word != lastWord {
				bf.groups = append(bf.groups, wordGroup{
					word:     word,
					cellBase: int32(len(bf.packed)),
					minWorst: neverFails,
				})
				lastWord = word
			}
			g := &bf.groups[len(bf.groups)-1]
			g.mask |= 1 << uint(p.sysCol&63)
			g.minWorst = min(g.minWorst, p.worstRetention)
			rowWorst = min(rowWorst, p.worstRetention)
			bf.packed = append(bf.packed, p)
		}
		bf.groupOff[r+1] = int32(len(bf.groups))
		bf.minWorstBySysRow[r] = rowWorst
		if rowWorst != neverFails {
			bf.weakRows = append(bf.weakRows, int32(r))
			bf.weakFloors = append(bf.weakFloors, rowWorst)
		}
	}
	return bf
}

// compilePacked resolves one mapped weak cell into its word-kernel
// form. Bitline (left/right) neighbours live in the victim's own
// system row: mapped ones get their system column, unmapped ones fold
// to a constant stress term (they store 0 forever and aggress exactly
// when the victim's row charges as 1). Wordline (up/down) neighbours
// keep only their weights — they are read word-wide from the adjacent
// rows at query time.
func (m *Model) compilePacked(wc weakCell) packedCell {
	p := packedCell{
		baseRetention: wc.baseRetention,
		sysCol:        int32(m.sysColOfPhys[wc.physCol]),
		lCol:          -1,
		rCol:          -1,
	}
	charged1 := m.trueCell(wc.physRow) // bitline neighbours share the victim's orientation
	if wc.physCol-1 >= 0 {
		p.wL = wc.w[0]
		if nsc := m.sysColOfPhys[wc.physCol-1]; nsc >= 0 {
			p.lCol = int32(nsc)
		} else if charged1 {
			p.lConstW = wc.w[0]
		}
	}
	if wc.physCol+1 < m.geom.PhysCols() {
		p.wR = wc.w[1]
		if nsc := m.sysColOfPhys[wc.physCol+1]; nsc >= 0 {
			p.rCol = int32(nsc)
		} else if charged1 {
			p.rConstW = wc.w[1]
		}
	}
	if wc.physRow-1 >= 0 {
		p.wU = wc.w[2]
	}
	if wc.physRow+1 < m.geom.RowsPerBank {
		p.wD = wc.w[3]
	}
	// The worst case has every neighbour that physically exists
	// aggressing; out-of-array weights are 0, so this is the stress sum
	// with every term on, accumulated in the kernel's left, right, up,
	// down order.
	p.worstRetention = m.effectiveRetention(&p, p.wL+p.wR+p.wU+p.wD)
	return p
}

func (m *Model) makeWeakCell(rng *rand.Rand, pr, pc int) weakCell {
	// Log-uniform base retention in [floor, ceil].
	lf := math.Log(float64(m.params.RetentionFloor))
	lc := math.Log(float64(m.params.RetentionCeil))
	base := dram.Nanoseconds(math.Exp(lf + rng.Float64()*(lc-lf)))

	// Coupling weights: split the budget between bitline (left/right)
	// and wordline (up/down) neighbours, then randomize within each
	// pair.
	bl := m.params.BitlineWeight
	l := rng.Float64()
	u := rng.Float64()
	w := [4]float64{
		bl * l,
		bl * (1 - l),
		(1 - bl) * u,
		(1 - bl) * (1 - u),
	}
	return weakCell{physRow: pr, physCol: pc, baseRetention: base, w: w}
}

// trueCell reports whether the physical cell stores logical 1 as charge.
// Orientation alternates in pairs of physical rows, offset per chip.
func (m *Model) trueCell(physRow int) bool {
	off := int(m.seed>>7) & 1
	return ((physRow+off)/2)%2 == 0
}

// effectiveRetention is a cell's retention under interference stress
// s: base*(1-MaxStress*s).
func (m *Model) effectiveRetention(p *packedCell, s float64) dram.Nanoseconds {
	return dram.Nanoseconds(float64(p.baseRetention) * (1 - m.params.MaxStress*s))
}

// rowGroups returns the word groups of system row r.
func (bf *bankFaults) rowGroups(r int32) []wordGroup {
	return bf.groups[bf.groupOff[r]:bf.groupOff[r+1]]
}

// weakAt reports whether system row r holds a mapped weak cell at
// system column c.
func (bf *bankFaults) weakAt(r int32, c int) bool {
	w := int32(c >> 6)
	for _, g := range bf.rowGroups(r) {
		if g.word >= w { // groups ascend by word
			return g.word == w && g.mask>>uint(c&63)&1 != 0
		}
	}
	return false
}

// NeighborSysRows returns the system addresses of the rows that are
// PHYSICALLY adjacent to the given system row — the rows whose cells'
// stress changes when this row's content changes (wordline coupling).
// Only the silicon knows this mapping; the full-fidelity System uses it
// to model a DRAM-internal adjacency hint (in the spirit of target-row
// refresh), never the DRAM-transparent engine itself.
func (m *Model) NeighborSysRows(a dram.RowAddress) []dram.RowAddress {
	inv := m.sysRowOfPhys[a.Bank]
	pr := int(m.physRowOfSys[a.Bank][a.Row])
	var out []dram.RowAddress
	if pr-1 >= 0 {
		out = append(out, dram.RowAddress{Bank: a.Bank, Row: inv[pr-1]})
	}
	if pr+1 < m.geom.RowsPerBank {
		out = append(out, dram.RowAddress{Bank: a.Bank, Row: inv[pr+1]})
	}
	return out
}

// AffectedNeighborRows returns the system rows (always in the same
// bank) holding a weak cell whose interference stress depends on any of
// the given cells of row a — the rows whose FailingCells verdict can
// change once those cells flip. A read-back pass that evaluated rows
// against pre-flip content re-evaluates exactly these rows after
// committing flips, which keeps batched evaluation bit-identical to a
// strictly sequential commit-as-you-go scan. The flipped cells must be
// cells FailingCells reported for row a (flips only ever land on the
// row's own weak cells); the fast paths below rely on that.
func (m *Model) AffectedNeighborRows(a dram.RowAddress, flipped []int) []dram.RowAddress {
	bf := m.banks[a.Bank]
	ni := &bf.neigh[a.Row]
	self := int32(a.Row)
	// A weak cell at physical (qr, qc) reads the flipped cell at
	// (pr, pc) as a neighbour iff qr==pr, |qc-pc|==1 (bitline) or
	// qc==pc, |qr-pr|==1 (wordline). A wordline neighbour shares the
	// flipped cell's system column (the column swizzle is
	// row-independent); a bitline neighbour's physical column resolves
	// to a system column of this row, or to none when unmapped.
	selfAt := func(qc int) bool {
		if qc < 0 || qc >= len(m.sysColOfPhys) {
			return false
		}
		c := m.sysColOfPhys[qc]
		return c >= 0 && bf.weakAt(self, c)
	}
	// Only three rows can ever be affected — this row and its two
	// physical neighbours — and each is decided at most once: a
	// candidate's need flag drops when the row is appended, and starts
	// false when no flip can match it. The self row needs a SECOND weak
	// cell bitline-adjacent to a flipped one (the flipped cell is
	// itself weak), so single-weak-cell rows — the common case at
	// realistic weak-cell densities — return without a single column
	// probe; a neighbour row without weak cells likewise never scans.
	selfCells := 0
	for _, g := range bf.rowGroups(self) {
		selfCells += bits.OnesCount64(g.mask)
	}
	needSelf := selfCells >= 2
	needUp := ni.upSys >= 0 && len(bf.rowGroups(ni.upSys)) > 0
	needDn := ni.dnSys >= 0 && len(bf.rowGroups(ni.dnSys)) > 0
	var out []dram.RowAddress
	for _, c := range flipped {
		if !needSelf && !needUp && !needDn {
			break
		}
		pc := m.scr.PhysCol(c)
		if needSelf && (selfAt(pc-1) || selfAt(pc+1)) {
			out = append(out, a)
			needSelf = false
		}
		if needUp && bf.weakAt(ni.upSys, c) {
			out = append(out, dram.RowAddress{Bank: a.Bank, Row: int(ni.upSys)})
			needUp = false
		}
		if needDn && bf.weakAt(ni.dnSys, c) {
			out = append(out, dram.RowAddress{Bank: a.Bank, Row: int(ni.dnSys)})
			needDn = false
		}
	}
	return out
}

// WeakCellCount returns the number of weak cells in the bank.
func (m *Model) WeakCellCount(bank int) int { return m.banks[bank].count }

// Geometry returns the model's geometry.
func (m *Model) Geometry() dram.Geometry { return m.geom }
