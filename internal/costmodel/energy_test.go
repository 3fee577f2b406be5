package costmodel

import (
	"math"
	"testing"

	"memcon/internal/dram"
)

func TestBudgetValidate(t *testing.T) {
	if err := DDR3Budget().Validate(); err != nil {
		t.Fatalf("default budget invalid: %v", err)
	}
	for _, bad := range []Budget{
		{ActPreNJ: -1}, {ReadNJ: -1}, {RefreshNJ: -1}, {BackgroundMW: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("negative energy accepted: %+v", bad)
		}
	}
}

func TestEnergyBasics(t *testing.T) {
	b := Budget{ActPreNJ: 10, ReadNJ: 2, RefreshNJ: 5, BackgroundMW: 100}
	got, err := DefaultConfig().Energy(b, Tally{RefreshOps: 10000, Duration: dram.Second})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.RefreshMJ-0.05) > 1e-12 {
		t.Errorf("RefreshMJ = %v, want 0.05", got.RefreshMJ)
	}
	if got.TestingMJ != 0 {
		t.Errorf("TestingMJ = %v without tests", got.TestingMJ)
	}
	// 100 mW over 1 s = 100 mJ.
	if math.Abs(got.BackgroundMJ-100) > 1e-9 {
		t.Errorf("BackgroundMJ = %v, want 100", got.BackgroundMJ)
	}
	if got.Total() != got.RefreshMJ+got.TestingMJ+got.BackgroundMJ || got.Total() <= got.BackgroundMJ {
		t.Errorf("Total = %v, want the sum of %+v", got.Total(), got)
	}
}

func TestEnergyErrors(t *testing.T) {
	bad := DDR3Budget()
	bad.ActPreNJ = -1
	if _, err := DefaultConfig().Energy(bad, Tally{}); err == nil {
		t.Error("invalid budget accepted")
	}
	if _, err := DefaultConfig().Energy(DDR3Budget(), Tally{Duration: -1}); err == nil {
		t.Error("negative duration accepted")
	}
}

// One test row cycle is an activation plus a row (BlocksPerRow = 128)
// of column reads.
func TestTestingEnergy(t *testing.T) {
	b := Budget{ActPreNJ: 10, ReadNJ: 2}
	got, err := DefaultConfig().Energy(b, Tally{TestRowCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := (10 + 128*2.0) * 1e-6; math.Abs(got.TestingMJ-want) > 1e-15 {
		t.Errorf("TestingMJ = %v, want %v", got.TestingMJ, want)
	}
}

func TestTestEnergyByMode(t *testing.T) {
	c := DefaultConfig()
	rc, err := c.testEnergyNJ(DDR3Budget())
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * (20 + 128*6.0); rc != want {
		t.Errorf("Read-and-Compare energy = %v, want %v", rc, want)
	}
	c.Mode = CopyCompare
	cc, err := c.testEnergyNJ(DDR3Budget())
	if err != nil {
		t.Fatal(err)
	}
	if cc <= rc {
		t.Errorf("Copy-and-Compare energy %v not above Read-and-Compare %v", cc, rc)
	}
	// A tally priced through Energy charges a test exactly its mode's
	// test energy.
	e, err := c.Energy(DDR3Budget(), Tally{TestRowCycles: int64(c.Mode.RowCycles())})
	if err != nil {
		t.Fatal(err)
	}
	if e.TestingMJ != cc*1e-6 {
		t.Errorf("one tallied test = %v mJ, want %v", e.TestingMJ, cc*1e-6)
	}
	// An accelerated test keeps its rows inside DRAM: no row cycles to
	// price, so energy pricing is an error.
	for _, m := range []TestMode{RowCloneCopy, InDRAMCompare} {
		c.Mode = m
		if _, err := c.testEnergyNJ(DDR3Budget()); err == nil {
			t.Errorf("%s test priced in energy", m)
		}
		if _, err := c.EnergyMinWriteInterval(DDR3Budget()); err == nil {
			t.Errorf("%s energy crossover accepted", m)
		}
	}
}

// Refresh energy must dominate the variable energy at high density and
// aggressive refresh — the regime where MEMCON's savings matter.
func TestAggressiveRefreshDominates(t *testing.T) {
	c := DefaultConfig()
	rows := 512 * 1024 // 4 GB at 8 KB rows
	dur := dram.Second
	aggressive := Tally{
		RefreshOps: float64(rows) * float64(dur) / float64(16*dram.Millisecond),
		Duration:   dur,
	}
	relaxed := aggressive
	relaxed.RefreshOps /= 4
	a, err := c.Energy(DDR3Budget(), aggressive)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Energy(DDR3Budget(), relaxed)
	if err != nil {
		t.Fatal(err)
	}
	if a.RefreshMJ <= r.RefreshMJ {
		t.Error("aggressive refresh should cost more energy")
	}
	if s := 1 - r.Total()/a.Total(); s <= 0.1 {
		t.Errorf("refresh-dominated savings = %v, want substantial", s)
	}
}

func TestEnergyMinWriteInterval(t *testing.T) {
	cfg := DefaultConfig()
	b := DDR3Budget()
	latencyMWI, err := cfg.MinWriteInterval()
	if err != nil {
		t.Fatal(err)
	}
	energyMWI, err := cfg.EnergyMinWriteInterval(b)
	if err != nil {
		t.Fatal(err)
	}
	// The central finding: the energy crossover lies well beyond the
	// latency crossover, because a test moves two full rows of data
	// while a refresh is one internal activate/precharge.
	if energyMWI <= latencyMWI {
		t.Errorf("energy MWI %d ms not beyond latency MWI %d ms",
			energyMWI/dram.Millisecond, latencyMWI/dram.Millisecond)
	}
	// Sanity on magnitude: the test energy / per-interval refresh saving
	// ratio bounds the crossover analytically.
	testNJ, err := cfg.testEnergyNJ(b)
	if err != nil {
		t.Fatal(err)
	}
	perHiWindowSaving := b.RefreshNJ * (1 - float64(cfg.HiRefInterval)/float64(cfg.LoRefInterval))
	approx := dram.Nanoseconds(testNJ/perHiWindowSaving) * cfg.HiRefInterval
	if energyMWI < approx/2 || energyMWI > approx*2 {
		t.Errorf("energy MWI %d ms far from analytic estimate %d ms",
			energyMWI/dram.Millisecond, approx/dram.Millisecond)
	}
}

func TestEnergyMinWriteIntervalErrors(t *testing.T) {
	bad := DefaultConfig()
	bad.LoRefInterval = bad.HiRefInterval
	if _, err := bad.EnergyMinWriteInterval(DDR3Budget()); err == nil {
		t.Error("invalid config accepted")
	}
	b := DDR3Budget()
	b.RefreshNJ = 0
	if _, err := DefaultConfig().EnergyMinWriteInterval(b); err == nil {
		t.Error("zero refresh energy accepted")
	}
	b = DDR3Budget()
	b.ReadNJ = -1
	if _, err := DefaultConfig().EnergyMinWriteInterval(b); err == nil {
		t.Error("negative read energy accepted")
	}
}
