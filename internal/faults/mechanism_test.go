package faults

import (
	"math/rand"
	"testing"

	"memcon/internal/dram"
)

// TestRowChargedBitMatchesOrientation pins the orientation accessor a
// secondary mechanism builds on: RowChargedBit must agree with the
// kernel's own verdicts — a solid fill of the charged value is the
// all-charged worst case (failures possible), while a solid fill of the
// discharged value can never fail.
func TestRowChargedBitMatchesOrientation(t *testing.T) {
	p := DefaultParams()
	p.WeakCellFraction = 5e-3
	m, mod := newTestModel(t, 21, p)
	geom := m.Geometry()
	idle := p.RetentionCeil + p.RetentionFloor // beyond ceiling: every charged weak cell fails
	buf1 := dram.NewRow(geom.ColsPerRow)
	buf1.Fill(^uint64(0))
	buf0 := dram.NewRow(geom.ColsPerRow)
	for b := 0; b < geom.BanksPerChip; b++ {
		for r := 0; r < geom.RowsPerBank; r++ {
			a := dram.RowAddress{Bank: b, Row: r}
			cb := m.RowChargedBit(b, r)
			discharged := buf1
			if cb == 1 {
				discharged = buf0
			}
			if err := mod.WriteRow(a, discharged, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	for b := 0; b < geom.BanksPerChip; b++ {
		for r := 0; r < geom.RowsPerBank; r++ {
			a := dram.RowAddress{Bank: b, Row: r}
			if cells := m.FailingCells(mod, a, idle); len(cells) > 0 {
				t.Fatalf("bank %d row %d: fully discharged row (charged bit %d) reported failures %v",
					b, r, m.RowChargedBit(b, r), cells)
			}
		}
	}
}

// TestPhysRowOfSysRoundTrips pins the permutation accessors: they must
// invert each other in both directions, and PhysRowOfSys must invert
// NeighborSysRows' view of physical adjacency.
func TestPhysRowOfSysRoundTrips(t *testing.T) {
	m, _ := newTestModel(t, 33, DefaultParams())
	geom := m.Geometry()
	for b := 0; b < geom.BanksPerChip; b++ {
		for row := 0; row < geom.RowsPerBank; row++ {
			if got := m.SysRowOfPhys(b, m.PhysRowOfSys(b, row)); got != row {
				t.Fatalf("bank %d: SysRowOfPhys(PhysRowOfSys(%d)) = %d", b, row, got)
			}
			if got := m.PhysRowOfSys(b, m.SysRowOfPhys(b, row)); got != row {
				t.Fatalf("bank %d: PhysRowOfSys(SysRowOfPhys(%d)) = %d", b, row, got)
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 128; i++ {
		b := rng.Intn(geom.BanksPerChip)
		r := rng.Intn(geom.RowsPerBank)
		pr := m.PhysRowOfSys(b, r)
		if pr < 0 || pr >= geom.RowsPerBank {
			t.Fatalf("PhysRowOfSys(%d,%d) = %d outside [0,%d)", b, r, pr, geom.RowsPerBank)
		}
		for _, nb := range m.NeighborSysRows(dram.RowAddress{Bank: b, Row: r}) {
			npr := m.PhysRowOfSys(nb.Bank, nb.Row)
			if d := npr - pr; d != 1 && d != -1 {
				t.Fatalf("neighbour of sys row %d (phys %d) maps to phys %d; want adjacent", r, pr, npr)
			}
		}
	}
}
