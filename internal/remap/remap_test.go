package remap

import (
	"testing"

	"memcon/internal/dram"
)

func testGeometry() dram.Geometry {
	return dram.Geometry{
		Ranks:         1,
		ChipsPerRank:  1,
		BanksPerChip:  2,
		RowsPerBank:   64,
		ColsPerRow:    64,
		RedundantCols: 0,
	}
}

func TestNewValidation(t *testing.T) {
	g := testGeometry()
	if _, err := New(dram.Geometry{}, 4); err == nil {
		t.Error("invalid geometry accepted")
	}
	if _, err := New(g, 0); err == nil {
		t.Error("zero spares accepted")
	}
	if _, err := New(g, g.RowsPerBank); err == nil {
		t.Error("all-rows-spare accepted")
	}
}

func TestRemapIntoSameBankSpare(t *testing.T) {
	tab, err := New(testGeometry(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.SpareRegionStart(); got != 60 {
		t.Errorf("spare region starts at row %d, want 60", got)
	}
	a := dram.RowAddress{Bank: 0, Row: 10}
	if tab.IsRemapped(a) {
		t.Error("fresh table claims remapping")
	}
	spare, err := tab.Remap(a)
	if err != nil {
		t.Fatal(err)
	}
	if spare.Bank != a.Bank {
		t.Errorf("spare in bank %d, want same bank %d", spare.Bank, a.Bank)
	}
	if spare.Row < tab.SpareRegionStart() {
		t.Errorf("spare row %d below spare region %d", spare.Row, tab.SpareRegionStart())
	}
	if !tab.IsRemapped(a) {
		t.Error("remapped row not reported as remapped")
	}
}

func TestRemapErrors(t *testing.T) {
	tab, _ := New(testGeometry(), 2)
	a := dram.RowAddress{Bank: 0, Row: 1}
	if _, err := tab.Remap(dram.RowAddress{Bank: -1, Row: 0}); err == nil {
		t.Error("invalid address accepted")
	}
	if _, err := tab.Remap(dram.RowAddress{Bank: 0, Row: 63}); err == nil {
		t.Error("spare-region row accepted")
	}
	if _, err := tab.Remap(a); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Remap(a); err == nil {
		t.Error("double remap accepted")
	}
	// Exhaust bank 0's spares (2 per bank).
	if _, err := tab.Remap(dram.RowAddress{Bank: 0, Row: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Remap(dram.RowAddress{Bank: 0, Row: 3}); err == nil {
		t.Error("bank spare exhaustion not detected")
	}
	// Other bank still has spares.
	if _, err := tab.Remap(dram.RowAddress{Bank: 1, Row: 3}); err != nil {
		t.Errorf("other bank rejected: %v", err)
	}
}

func TestPolicyThreshold(t *testing.T) {
	tab, _ := New(testGeometry(), 4)
	p, err := NewPolicy(tab, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := dram.RowAddress{Bank: 0, Row: 7}
	if got := p.RecordTest(a, false); got != nil {
		t.Error("remapped after one failure")
	}
	if got := p.RecordTest(a, false); got != nil {
		t.Error("remapped after two failures")
	}
	if got := p.RecordTest(a, false); got == nil {
		t.Fatal("not remapped after threshold failures")
	}
	if p.Remapped() != 1 {
		t.Errorf("remapped count = %d, want 1", p.Remapped())
	}
	if !tab.IsRemapped(a) {
		t.Error("table does not show the remap")
	}
}

func TestPolicyPassResetsStreak(t *testing.T) {
	tab, _ := New(testGeometry(), 4)
	p, _ := NewPolicy(tab, 2)
	a := dram.RowAddress{Bank: 0, Row: 9}
	p.RecordTest(a, false)
	p.RecordTest(a, true) // clean test resets the streak
	if got := p.RecordTest(a, false); got != nil {
		t.Error("streak not reset by a passing test")
	}
	if got := p.RecordTest(a, false); got == nil {
		t.Error("second consecutive failure after reset should remap")
	}
}

func TestNewPolicyValidation(t *testing.T) {
	tab, _ := New(testGeometry(), 4)
	if _, err := NewPolicy(tab, 0); err == nil {
		t.Error("zero threshold accepted")
	}
}
