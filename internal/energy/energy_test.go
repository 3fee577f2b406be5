package energy

import (
	"math"
	"testing"

	"memcon/internal/dram"
)

func TestBudgetValidate(t *testing.T) {
	if err := DDR3Budget().Validate(); err != nil {
		t.Fatalf("default budget invalid: %v", err)
	}
	bad := DDR3Budget()
	bad.ReadNJ = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative energy accepted")
	}
}

func TestComputeBasics(t *testing.T) {
	b := Budget{ActPreNJ: 10, ReadNJ: 2, WriteNJ: 3, RefreshPerRowNJ: 5, BackgroundMW: 100}
	tally := Tally{
		Activates:  1000,
		Reads:      2000,
		Writes:     500,
		RefreshOps: 10000,
		Duration:   dram.Second,
	}
	got, err := Compute(b, tally)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.ActPreMJ-0.01) > 1e-12 {
		t.Errorf("ActPreMJ = %v, want 0.01", got.ActPreMJ)
	}
	if math.Abs(got.ReadMJ-0.004) > 1e-12 {
		t.Errorf("ReadMJ = %v, want 0.004", got.ReadMJ)
	}
	if math.Abs(got.WriteMJ-0.0015) > 1e-12 {
		t.Errorf("WriteMJ = %v, want 0.0015", got.WriteMJ)
	}
	if math.Abs(got.RefreshMJ-0.05) > 1e-12 {
		t.Errorf("RefreshMJ = %v, want 0.05", got.RefreshMJ)
	}
	// 100 mW over 1 s = 100 mJ.
	if math.Abs(got.BackgroundMJ-100) > 1e-9 {
		t.Errorf("BackgroundMJ = %v, want 100", got.BackgroundMJ)
	}
	if got.Total() <= got.BackgroundMJ {
		t.Error("total must exceed background alone")
	}
}

func TestComputeErrors(t *testing.T) {
	bad := DDR3Budget()
	bad.ActPreNJ = -1
	if _, err := Compute(bad, Tally{}); err == nil {
		t.Error("invalid budget accepted")
	}
	if _, err := Compute(DDR3Budget(), Tally{Duration: -1}); err == nil {
		t.Error("negative duration accepted")
	}
}

func TestTestingEnergy(t *testing.T) {
	b := Budget{ActPreNJ: 10, ReadNJ: 2}
	tally := Tally{TestRowCycles: 1, BlocksPerRow: 128}
	got, err := Compute(b, tally)
	if err != nil {
		t.Fatal(err)
	}
	want := (10 + 128*2.0) * 1e-6
	if math.Abs(got.TestingMJ-want) > 1e-15 {
		t.Errorf("TestingMJ = %v, want %v", got.TestingMJ, want)
	}
	// Default block count kicks in when unset.
	tally.BlocksPerRow = 0
	got2, _ := Compute(b, tally)
	if got2.TestingMJ != got.TestingMJ {
		t.Errorf("default blocks differ: %v vs %v", got2.TestingMJ, got.TestingMJ)
	}
}

// Refresh energy must dominate the variable energy at high density and
// aggressive refresh — the regime where MEMCON's savings matter.
func TestAggressiveRefreshDominates(t *testing.T) {
	budget := DDR3Budget()
	rows := 512 * 1024 // 4 GB at 8 KB rows
	dur := dram.Second
	aggressive := Tally{
		RefreshOps: float64(rows) * float64(dur) / float64(16*dram.Millisecond),
		Duration:   dur,
	}
	relaxed := aggressive
	relaxed.RefreshOps /= 4
	a, err := Compute(budget, aggressive)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Compute(budget, relaxed)
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
