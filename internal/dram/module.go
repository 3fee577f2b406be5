package dram

import (
	"fmt"
	"math/rand"
)

// Row is the packed bit content of one DRAM row, 64 cells per word.
type Row []uint64

// NewRow allocates a zeroed row for cols cells (cols must be a multiple
// of 64).
func NewRow(cols int) Row { return make(Row, cols/64) }

// Bit returns cell c of the row.
func (r Row) Bit(c int) int { return int(r[c/64]>>(uint(c)%64)) & 1 }

// SetBit writes cell c of the row to v (0 or 1).
func (r Row) SetBit(c, v int) {
	if v&1 == 1 {
		r[c/64] |= 1 << (uint(c) % 64)
	} else {
		r[c/64] &^= 1 << (uint(c) % 64)
	}
}

// Fill sets every 64-cell word of the row to pattern.
func (r Row) Fill(pattern uint64) {
	for i := range r {
		r[i] = pattern
	}
}

// Randomize fills the row with uniform random bits from rng.
func (r Row) Randomize(rng *rand.Rand) {
	for i := range r {
		r[i] = rng.Uint64()
	}
}

// Module is the system-visible DRAM module: stored content per row plus
// per-row charge bookkeeping (the time each row was last fully charged by
// an activation or refresh). Content is addressed in SYSTEM address
// space; the vendor scrambling applied inside the silicon is modelled in
// the faults package, which receives the physical view.
//
// Module is not safe for concurrent use; the simulator drives it from a
// single goroutine, matching a single memory controller.
type Module struct {
	geom Geometry
	// rows holds system-addressed content, indexed by Geometry.RowIndex.
	rows []Row
	// lastCharge[i] is the time row i was last activated or refreshed.
	lastCharge []Nanoseconds
}

// NewModule allocates a module with the given geometry. All cells start
// at zero and fully charged at time 0. Each bank's rows are windows of
// one slab, capped at their own last word so an append to one row
// cannot overwrite the next.
func NewModule(geom Geometry) (*Module, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	m := &Module{
		geom:       geom,
		rows:       make([]Row, geom.TotalRows()),
		lastCharge: make([]Nanoseconds, geom.TotalRows()),
	}
	w := geom.ColsPerRow / 64
	for b := 0; b < geom.BanksPerChip; b++ {
		slab := make([]uint64, geom.RowsPerBank*w)
		bank := m.rows[b*geom.RowsPerBank : (b+1)*geom.RowsPerBank]
		for j := range bank {
			bank[j] = slab[j*w : (j+1)*w : (j+1)*w]
		}
	}
	return m, nil
}

// Geometry returns the module geometry.
func (m *Module) Geometry() Geometry { return m.geom }

// WriteRow stores content into the addressed row at time now. Writing
// activates the row, fully recharging its cells. The content slice is
// copied.
func (m *Module) WriteRow(a RowAddress, content Row, now Nanoseconds) error {
	if !m.geom.ValidAddress(a) {
		return fmt.Errorf("dram: write to invalid address %+v", a)
	}
	if len(content) != m.geom.ColsPerRow/64 {
		return fmt.Errorf("dram: row content has %d words, geometry needs %d", len(content), m.geom.ColsPerRow/64)
	}
	idx := m.geom.RowIndex(a)
	copy(m.rows[idx], content)
	m.lastCharge[idx] = now
	return nil
}

// WriteImage stores image across the whole module at time now, as a
// WriteRow per row would: row idx (RowIndex order) gets
// image[idx%len(image)], so an image shorter than the module wraps and
// a longer one is cut. Every image row it uses must hold a row's words;
// they are checked before any row is written.
func (m *Module) WriteImage(image []Row, now Nanoseconds) error {
	if len(image) == 0 {
		return fmt.Errorf("dram: empty image")
	}
	words := m.geom.ColsPerRow / 64
	for _, row := range image[:min(len(image), len(m.rows))] {
		if len(row) != words {
			return fmt.Errorf("dram: row content has %d words, geometry needs %d", len(row), words)
		}
	}
	for start := 0; start < len(m.rows); start += len(image) {
		for j, dst := range m.rows[start:min(start+len(image), len(m.rows))] {
			copy(dst, image[j])
		}
	}
	m.RechargeAll(now)
	return nil
}

// RowRef returns the module's internal row storage for the address. It
// is used by the faults package (playing the role of silicon) and must
// not be retained across writes by other callers.
func (m *Module) RowRef(a RowAddress) Row {
	return m.rows[m.geom.RowIndex(a)]
}

// RowAt returns the module's internal row storage at flat index idx
// (Geometry.RowIndex order) without address re-validation — the
// silicon-side fast path the faults kernel uses for neighbour reads.
// Same aliasing rules as RowRef.
func (m *Module) RowAt(idx int) Row { return m.rows[idx] }

// IdleTime returns how long the row has been idle (uncharged) at time now.
func (m *Module) IdleTime(a RowAddress, now Nanoseconds) Nanoseconds {
	d := now - m.lastCharge[m.geom.RowIndex(a)]
	if d < 0 {
		return 0
	}
	return d
}

// IdleAtIndex is IdleTime for a pre-resolved flat row index
// (Geometry.RowIndex order); the parallel read-back scan uses it to
// avoid re-deriving the index per row.
func (m *Module) IdleAtIndex(idx int, now Nanoseconds) Nanoseconds {
	d := now - m.lastCharge[idx]
	if d < 0 {
		return 0
	}
	return d
}

// RechargeAll recharges every row at time now, as a full read-back or
// refresh sweep does once it has visited the whole array.
func (m *Module) RechargeAll(now Nanoseconds) {
	for i := range m.lastCharge {
		m.lastCharge[i] = now
	}
}

// ApplyFlips mutates stored content, flipping the given cells of the
// addressed row. The faults package calls this when a read observes
// data-dependent failures: once a cell has leaked, the wrong value is
// what the array now holds.
func (m *Module) ApplyFlips(a RowAddress, cells []int) {
	row := m.rows[m.geom.RowIndex(a)]
	for _, c := range cells {
		row.SetBit(c, row.Bit(c)^1)
	}
}

// Activate recharges the row at time now without changing content —
// program reads do this, which is why reads never introduce new
// data-dependent failures (paper §3.2).
func (m *Module) Activate(a RowAddress, now Nanoseconds) {
	m.lastCharge[m.geom.RowIndex(a)] = now
}
