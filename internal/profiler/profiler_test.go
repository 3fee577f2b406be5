package profiler

import (
	"math"
	"testing"

	"memcon/internal/dram"
	"memcon/internal/faults"
	"memcon/internal/softmc"
)

func testGeometry() dram.Geometry {
	return dram.Geometry{
		Ranks:         1,
		ChipsPerRank:  1,
		BanksPerChip:  2,
		RowsPerBank:   512,
		ColsPerRow:    512,
		RedundantCols: 16,
	}
}

func newChip(t *testing.T, seed uint64, weakFraction float64) (*softmc.Tester, *faults.Model, dram.Geometry) {
	t.Helper()
	geom := testGeometry()
	scr := dram.NewScrambler(geom, seed, nil)
	params := faults.ParamsForRefresh(dram.RefreshWindowDefault)
	if weakFraction > 0 {
		params.WeakCellFraction = weakFraction
	}
	model, err := faults.NewModel(geom, scr, seed, params)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := dram.NewModule(geom)
	if err != nil {
		t.Fatal(err)
	}
	tester, err := softmc.NewTester(mod, model)
	if err != nil {
		t.Fatal(err)
	}
	return tester, model, geom
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Rounds: 0, TargetIdle: 1, Guardband: 1},
		{Rounds: 1, TargetIdle: 0, Guardband: 1},
		{Rounds: 1, TargetIdle: 1, Guardband: 0.5},
		{Rounds: 1, TargetIdle: dram.RefreshWindowDefault, Guardband: math.NaN()},
		{Rounds: 1, TargetIdle: dram.RefreshWindowDefault, Guardband: math.Inf(1)},
		{Rounds: 1, TargetIdle: dram.RefreshWindowDefault, Guardband: 1e30},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	tester, _, geom := newChip(t, 1, 0)
	if _, err := Run(tester, geom, Config{}); err == nil {
		t.Error("Run accepted invalid config")
	}
}

func TestRunFindsWeakRows(t *testing.T) {
	tester, _, geom := newChip(t, 3, 5e-3)
	p, err := Run(tester, geom, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.Runs != 2*8 {
		t.Errorf("runs = %d, want 16 (2 rounds x 8 patterns)", p.Runs)
	}
	if len(p.WeakRows) == 0 {
		t.Fatal("profile found no weak rows with a dense weak-cell population")
	}
	frac := p.WeakRowFraction()
	if frac <= 0 || frac > 0.9 {
		t.Errorf("weak-row fraction = %v, implausible", frac)
	}
	// Contains must agree with the map.
	for idx := range p.WeakRows {
		if !p.Contains(geom.AddressOfIndex(idx)) {
			t.Fatalf("Contains disagrees with WeakRows for row %d", idx)
		}
	}
}

func TestGuardbandCatchesMore(t *testing.T) {
	base := func(guardband float64) int {
		tester, _, geom := newChip(t, 5, 5e-3)
		cfg := DefaultConfig()
		cfg.Guardband = guardband
		p, err := Run(tester, geom, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return len(p.WeakRows)
	}
	tight := base(1.0)
	wide := base(2.0)
	if wide < tight {
		t.Errorf("guardband 2.0 found %d rows, fewer than %d at 1.0", wide, tight)
	}
}

// The paper's core argument: a pattern-based profile misses rows that
// real content can fail, because pattern adjacency in system address
// space does not match physical adjacency.
func TestProfileHasEscapes(t *testing.T) {
	tester, model, geom := newChip(t, 7, 5e-3)
	cfg := DefaultConfig()
	cfg.Guardband = 1.0 // no guardband: worst case for the profiler
	p, err := Run(tester, geom, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := Escapes(p, model, cfg.TargetIdle)
	if rep.TrueWeakRows == 0 {
		t.Fatal("ground truth has no weak rows; test is vacuous")
	}
	if rep.Escapes == 0 {
		t.Skip("profiler caught everything for this seed; escapes are probabilistic")
	}
	if rep.EscapeRate() <= 0 || rep.EscapeRate() > 1 {
		t.Errorf("escape rate = %v outside (0,1]", rep.EscapeRate())
	}
	t.Logf("profiled %d rows, ground truth %d, escapes %d (%.1f%%), false alarms %d",
		rep.ProfiledRows, rep.TrueWeakRows, rep.Escapes, 100*rep.EscapeRate(), rep.FalseAlarms)
}

func TestEscapeReportZeroTruth(t *testing.T) {
	r := EscapeReport{}
	if r.EscapeRate() != 0 {
		t.Error("zero-truth escape rate should be 0")
	}
}
