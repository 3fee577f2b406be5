package disturb

import (
	"math/rand"
	"slices"
	"testing"

	"memcon/internal/dram"
	"memcon/internal/faults"
)

func testGeometry() dram.Geometry {
	return dram.Geometry{
		Ranks: 1, ChipsPerRank: 1, BanksPerChip: 2,
		RowsPerBank: 256, ColsPerRow: 512, RedundantCols: 16,
	}
}

func newTestModel(t *testing.T, seed uint64, params Params) (*Model, *faults.Model, *dram.Module) {
	t.Helper()
	geom := testGeometry()
	scr := dram.NewScrambler(geom, seed, nil)
	fm, err := faults.NewModel(geom, scr, seed, faults.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(fm, seed, params)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := dram.NewModule(geom)
	if err != nil {
		t.Fatal(err)
	}
	return m, fm, mod
}

func fillRandom(t *testing.T, mod *dram.Module, seed int64) {
	t.Helper()
	g := mod.Geometry()
	rng := rand.New(rand.NewSource(seed))
	buf := dram.NewRow(g.ColsPerRow)
	for b := 0; b < g.BanksPerChip; b++ {
		for r := 0; r < g.RowsPerBank; r++ {
			buf.Randomize(rng)
			if err := mod.WriteRow(dram.RowAddress{Bank: b, Row: r}, buf, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.VictimRowFraction = -0.1 },
		func(p *Params) { p.VictimRowFraction = 1.1 },
		func(p *Params) { p.HCFirstFloor = 0 },
		func(p *Params) { p.HCFirstCeil = p.HCFirstFloor - 1 },
		func(p *Params) { p.CellsPerVictimMax = 0 },
		func(p *Params) { p.CellSpread = 1 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: bad params accepted: %+v", i, p)
		}
	}
}

func TestPopulationDeterministic(t *testing.T) {
	p := DefaultParams()
	p.VictimRowFraction = 0.1
	a, _, mod := newTestModel(t, 7, p)
	b, _, _ := newTestModel(t, 7, p)
	fillRandom(t, mod, 1)
	hammer := faults.RowWindow{Hammer: 1 << 40}
	for bank := 0; bank < testGeometry().BanksPerChip; bank++ {
		ra, ta := a.VictimRows(bank)
		rb, tb := b.VictimRows(bank)
		if len(ra) != len(rb) {
			t.Fatalf("bank %d: victim counts differ: %d vs %d", bank, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] || ta[i] != tb[i] {
				t.Fatalf("bank %d entry %d: (%d,%d) vs (%d,%d)", bank, i, ra[i], ta[i], rb[i], tb[i])
			}
		}
		// Same victim cells: identical content fails identically.
		for _, r := range ra {
			addr := dram.RowAddress{Bank: bank, Row: int(r)}
			ca := a.AppendFailures(nil, mod, addr, hammer)
			cb := b.AppendFailures(nil, mod, addr, hammer)
			if !slices.Equal(ca, cb) {
				t.Fatalf("bank %d row %d: failing cells differ: %v vs %v", bank, r, ca, cb)
			}
		}
	}
	c, _, _ := newTestModel(t, 8, p)
	ra, _ := a.VictimRows(0)
	rc, _ := c.VictimRows(0)
	same := len(ra) == len(rc)
	if same {
		for i := range ra {
			if ra[i] != rc[i] {
				same = false
				break
			}
		}
	}
	if same && len(ra) > 0 {
		t.Error("different seeds produced identical victim rows")
	}
}

// TestFlipsRequireHammerAboveThreshold: below every threshold nothing
// flips; above the ceiling every charged victim cell flips; counts are
// monotone in the hammer count (the blast-radius staircase).
func TestFlipsRequireHammerAboveThreshold(t *testing.T) {
	p := DefaultParams()
	p.VictimRowFraction = 0.2
	m, _, mod := newTestModel(t, 11, p)
	fillRandom(t, mod, 3)
	geom := testGeometry()
	for b := 0; b < geom.BanksPerChip; b++ {
		rows, thrs := m.VictimRows(b)
		if len(rows) == 0 {
			t.Fatalf("bank %d: no victims sampled", b)
		}
		thrOf := make(map[int]int64, len(rows))
		for i, r := range rows {
			thrOf[int(r)] = thrs[i]
		}
		prevTotal := -1
		for _, hammer := range []int64{0, p.HCFirstFloor - 1, p.HCFirstFloor * 4, 1 << 40} {
			total := 0
			for r := 0; r < geom.RowsPerBank; r++ {
				a := dram.RowAddress{Bank: b, Row: r}
				w := faults.RowWindow{Hammer: hammer}
				cells := m.AppendFailures(nil, mod, a, w)
				total += len(cells)
				if len(cells) > 0 && !m.RowVulnerable(a, w) {
					t.Fatalf("bank %d row %d: cells flipped but RowVulnerable false", b, r)
				}
				if thr, victim := thrOf[r]; (!victim || hammer < thr) && len(cells) > 0 {
					t.Fatalf("bank %d row %d: flips at hammer %d below threshold %d", b, r, hammer, thr)
				}
			}
			if total < prevTotal {
				t.Fatalf("bank %d: flipped cells not monotone in hammer count", b)
			}
			prevTotal = total
		}
		// Sanity: the minimum threshold row is vulnerable right at it.
		minRow, minThr := rows[0], thrs[0]
		for i := range rows {
			if thrs[i] < minThr {
				minRow, minThr = rows[i], thrs[i]
			}
		}
		a := dram.RowAddress{Bank: b, Row: int(minRow)}
		if !m.RowVulnerable(a, faults.RowWindow{Hammer: minThr}) {
			t.Fatalf("bank %d row %d: not vulnerable at its own threshold %d", b, minRow, minThr)
		}
	}
}

// TestFlipsAreContentConditional: a victim cell flips only while
// storing the charged value, so flipping the stored bit at a failing
// column must clear that column's failure.
func TestFlipsAreContentConditional(t *testing.T) {
	p := DefaultParams()
	p.VictimRowFraction = 0.2
	m, fm, mod := newTestModel(t, 13, p)
	fillRandom(t, mod, 9)
	geom := testGeometry()
	hammer := faults.RowWindow{Hammer: 1 << 40}
	checked := 0
	for b := 0; b < geom.BanksPerChip; b++ {
		rows, _ := m.VictimRows(b)
		for _, r := range rows {
			a := dram.RowAddress{Bank: b, Row: int(r)}
			cells := m.AppendFailures(nil, mod, a, hammer)
			if len(cells) == 0 {
				continue
			}
			cb := int(fm.RowChargedBit(b, int(r)))
			row := mod.RowRef(a)
			for _, c := range cells {
				if row.Bit(c) != cb {
					t.Fatalf("bank %d row %d col %d: flipped while storing discharged value", b, r, c)
				}
			}
			// Discharge the first failing cell; it must drop out.
			mut := slices.Clone(row)
			mut.SetBit(cells[0], 1-cb)
			if err := mod.WriteRow(a, mut, 0); err != nil {
				t.Fatal(err)
			}
			after := m.AppendFailures(nil, mod, a, hammer)
			for _, c := range after {
				if c == cells[0] {
					t.Fatalf("bank %d row %d col %d: still flips after discharge", b, r, cells[0])
				}
			}
			if len(after) != len(cells)-1 {
				t.Fatalf("bank %d row %d: %d failures after discharge, want %d", b, r, len(after), len(cells)-1)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no failing victim rows to check; raise VictimRowFraction")
	}
}

// TestAggressorsArePhysicalNeighbors: aggressor resolution must match
// the retention model's adjacency view of the shared silicon.
func TestAggressorsArePhysicalNeighbors(t *testing.T) {
	p := DefaultParams()
	m, fm, _ := newTestModel(t, 17, p)
	geom := testGeometry()
	for b := 0; b < geom.BanksPerChip; b++ {
		rows, _ := m.VictimRows(b)
		for _, r := range rows {
			a := dram.RowAddress{Bank: b, Row: int(r)}
			got := m.Aggressors(a)
			want := fm.NeighborSysRows(a)
			if len(got) != len(want) {
				t.Fatalf("bank %d row %d: %d aggressors, want %d", b, r, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("bank %d row %d: aggressor %d = %v, want %v", b, r, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCellThresholdsStaircase: per-row cell thresholds start at the
// row's threshold and escalate, bounding flips per hammer count. With
// every cell storing the charged value, no cell flips below the row's
// threshold, at least one flips at it, and more may flip above it.
func TestCellThresholdsStaircase(t *testing.T) {
	p := DefaultParams()
	p.VictimRowFraction = 0.2
	m, fm, mod := newTestModel(t, 19, p)
	geom := testGeometry()
	for b := 0; b < geom.BanksPerChip; b++ {
		rows, thrs := m.VictimRows(b)
		for i, r := range rows {
			a := dram.RowAddress{Bank: b, Row: int(r)}
			charged := dram.NewRow(geom.ColsPerRow)
			if fm.RowChargedBit(b, int(r)) == 1 {
				charged.Fill(^uint64(0))
			}
			if err := mod.WriteRow(a, charged, 0); err != nil {
				t.Fatal(err)
			}
			below := m.AppendFailures(nil, mod, a, faults.RowWindow{Hammer: thrs[i] - 1})
			at := m.AppendFailures(nil, mod, a, faults.RowWindow{Hammer: thrs[i]})
			above := m.AppendFailures(nil, mod, a, faults.RowWindow{Hammer: 1 << 40})
			if len(below) != 0 || len(at) == 0 || len(above) < len(at) {
				t.Fatalf("bank %d row %d: %d/%d/%d cells flip below/at/far above the row threshold %d",
					b, r, len(below), len(at), len(above), thrs[i])
			}
		}
	}
}
