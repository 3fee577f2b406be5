// Package remap implements the third mitigation substrate the paper
// lists (§1: failures are mitigated "via a high refresh rate, ECC,
// and/or remapping of faulty cells to reliable memory regions"):
// controller-side row remapping. Rows that keep failing online tests —
// rows whose content will practically always need HI-REF — can instead
// be remapped to spare rows in a reliable region, freeing them from the
// aggressive refresh rate entirely.
//
// The table models the memory-controller indirection: a set of (faulty
// row -> spare row) entries, one per spare at most, consulted on every
// access. Spare rows come from a reserved region, like the
// Copy-and-Compare parking region but permanent.
package remap

import (
	"fmt"

	"memcon/internal/dram"
)

// Table is the controller-side remap table.
type Table struct {
	geom dram.Geometry
	// spares lists unused spare rows, drawn from the reserved region.
	spares []dram.RowAddress
	// forward maps faulty rows to their spares.
	forward map[dram.RowAddress]dram.RowAddress
}

// New builds a remap table with sparesPerBank spare rows reserved at
// the top of each bank.
func New(geom dram.Geometry, sparesPerBank int) (*Table, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if sparesPerBank <= 0 || sparesPerBank >= geom.RowsPerBank {
		return nil, fmt.Errorf("remap: spares per bank %d outside (0,%d)", sparesPerBank, geom.RowsPerBank)
	}
	t := &Table{
		geom:    geom,
		forward: make(map[dram.RowAddress]dram.RowAddress),
	}
	for b := 0; b < geom.BanksPerChip; b++ {
		for i := 0; i < sparesPerBank; i++ {
			t.spares = append(t.spares, dram.RowAddress{Bank: b, Row: geom.RowsPerBank - 1 - i})
		}
	}
	return t, nil
}

// SpareRegionStart returns the first reserved row index within a bank;
// rows at or above it must not be used as program memory.
func (t *Table) SpareRegionStart() int {
	return t.geom.RowsPerBank - len(t.spares)/t.geom.BanksPerChip
}

// IsRemapped reports whether row a has been remapped.
func (t *Table) IsRemapped(a dram.RowAddress) bool {
	_, ok := t.forward[a]
	return ok
}

// Remap redirects faulty row a to a spare row in the same bank (same
// bank keeps timing behaviour identical). It fails when the row is in
// the spare region, already remapped, or the bank has no free spare.
func (t *Table) Remap(a dram.RowAddress) (dram.RowAddress, error) {
	if !t.geom.ValidAddress(a) {
		return dram.RowAddress{}, fmt.Errorf("remap: invalid address %+v", a)
	}
	if a.Row >= t.SpareRegionStart() {
		return dram.RowAddress{}, fmt.Errorf("remap: row %+v is inside the spare region", a)
	}
	if _, ok := t.forward[a]; ok {
		return dram.RowAddress{}, fmt.Errorf("remap: row %+v already remapped", a)
	}
	for i, spare := range t.spares {
		if spare.Bank == a.Bank {
			t.spares = append(t.spares[:i], t.spares[i+1:]...)
			t.forward[a] = spare
			return spare, nil
		}
	}
	return dram.RowAddress{}, fmt.Errorf("remap: bank %d has no free spare rows", a.Bank)
}

// Policy decides when MEMCON should remap instead of holding a row at
// HI-REF: after FailThreshold consecutive failed tests, the row's
// content is evidently always aggressive, and a remap (one-time copy
// cost) beats refreshing at 4x forever.
type Policy struct {
	Table *Table
	// FailThreshold is the consecutive-failure count that triggers a
	// remap.
	FailThreshold int
	fails         map[dram.RowAddress]int
	remapped      int
}

// NewPolicy builds a policy over a table.
func NewPolicy(t *Table, failThreshold int) (*Policy, error) {
	if failThreshold < 1 {
		return nil, fmt.Errorf("remap: fail threshold must be >= 1, got %d", failThreshold)
	}
	return &Policy{Table: t, FailThreshold: failThreshold, fails: make(map[dram.RowAddress]int)}, nil
}

// RecordTest feeds a test outcome for row a; it returns the spare when
// the policy decided to remap (and did).
func (p *Policy) RecordTest(a dram.RowAddress, passed bool) (remappedTo *dram.RowAddress) {
	if passed {
		delete(p.fails, a)
		return nil
	}
	p.fails[a]++
	if p.fails[a] >= p.FailThreshold && !p.Table.IsRemapped(a) {
		if spare, err := p.Table.Remap(a); err == nil {
			p.remapped++
			delete(p.fails, a)
			return &spare
		}
	}
	return nil
}

// Remapped returns the number of rows the policy remapped.
func (p *Policy) Remapped() int { return p.remapped }
