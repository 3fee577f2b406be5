package experiments

import (
	"context"
	"strings"
	"testing"

	"memcon/internal/dram"
)

func TestAblationsRegistered(t *testing.T) {
	for _, id := range []string{"abl-buffer", "abl-accel", "abl-pril"} {
		if _, err := Describe(id); err != nil {
			t.Errorf("ablation %q not registered: %v", id, err)
		}
	}
}

func TestRunAblBuffer(t *testing.T) {
	out, err := RunRequest(context.Background(), testRequest("abl-buffer"), Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	r := out.(*AblBufferResult)
	if len(r.Rows) < 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Unbounded must discard nothing; a starved buffer must discard and
	// must not beat the unbounded reduction.
	unbounded := r.Rows[0]
	if unbounded.Capacity != 0 || unbounded.Discards != 0 {
		t.Errorf("unbounded row = %+v", unbounded)
	}
	starved := r.Rows[len(r.Rows)-1]
	if starved.Discards == 0 {
		t.Error("starved buffer discarded nothing; sweep is vacuous")
	}
	if starved.Reduction > unbounded.Reduction+1e-9 {
		t.Errorf("starved reduction %v beats unbounded %v", starved.Reduction, unbounded.Reduction)
	}
	if !strings.Contains(out.Report().Text(), "unbounded") {
		t.Error("report missing capacity labels")
	}
}

func TestRunAblAccel(t *testing.T) {
	out, err := RunRequest(context.Background(), testRequest("abl-accel"), Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	r := out.(*AblAccelResult)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(r.Rows))
	}
	if r.Rows[0].MinWriteInterval != 864*dram.Millisecond {
		t.Errorf("baseline MWI = %d ms, want 864", r.Rows[0].MinWriteInterval/dram.Millisecond)
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].MinWriteInterval > r.Rows[i-1].MinWriteInterval {
			t.Error("acceleration increased MinWriteInterval")
		}
	}
	_ = out.Report().Text()
}

func TestRunAblPril(t *testing.T) {
	out, err := RunRequest(context.Background(), testRequest("abl-pril"), Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	r := out.(*AblPrilResult)
	if !r.Identical {
		t.Error("bitmap PRIL not prediction-equivalent to buffer PRIL")
	}
	if r.BufferPredictions == 0 {
		t.Error("no predictions made; comparison vacuous")
	}
	_ = out.Report().Text()
}

func TestRunEnergy(t *testing.T) {
	out, err := RunRequest(context.Background(), testRequest("energy"), Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	r := out.(*EnergyResult)
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(r.Rows))
	}
	// Ordering: the baseline saves nothing; every alternative saves
	// something; MEMCON sits between RAIDR and the 64 ms ideal.
	byName := map[string]EnergyRow{}
	for _, row := range r.Rows {
		byName[row.Policy] = row
	}
	if byName["16ms baseline"].Savings != 0 {
		t.Errorf("baseline savings = %v", byName["16ms baseline"].Savings)
	}
	raidr := byName["RAIDR"].Savings
	mc := byName["MEMCON"].Savings
	ideal := byName["64ms ideal"].Savings
	if mc <= byName["32ms"].Savings {
		t.Errorf("MEMCON savings %v not above the 32ms policy %v", mc, byName["32ms"].Savings)
	}
	// Energy ordering with a small tolerance: testing energy is heavier
	// per op than a refresh, so MEMCON sits near RAIDR energetically and
	// below the ideal.
	if !(raidr <= mc+0.03 && mc <= ideal+1e-9) {
		t.Errorf("energy ordering broken: RAIDR %v, MEMCON %v, ideal %v", raidr, mc, ideal)
	}
	// Testing energy must stay a small fraction of refresh energy.
	mcRow := byName["MEMCON"]
	if mcRow.Breakdown.TestingMJ > 0.10*mcRow.Breakdown.RefreshMJ {
		t.Errorf("testing energy %v not small vs refresh %v",
			mcRow.Breakdown.TestingMJ, mcRow.Breakdown.RefreshMJ)
	}
	if !strings.Contains(out.Report().Text(), "MEMCON") {
		t.Error("report missing policies")
	}
}

func TestRunVRT(t *testing.T) {
	out, err := RunRequest(context.Background(), testRequest("vrt"), Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	r := out.(*VRTResult)
	if len(r.Checkpoints) != 12 {
		t.Fatalf("checkpoints = %d, want 12", len(r.Checkpoints))
	}
	// MEMCON's bounded exposure must beat the decaying one-shot profile.
	if r.TotalMemcon >= r.TotalRAIDR {
		t.Errorf("MEMCON escapes %d not below one-shot profile escapes %d",
			r.TotalMemcon, r.TotalRAIDR)
	}
	if r.TotalRAIDR == 0 {
		t.Error("one-shot profile never escaped; VRT population too small to mean anything")
	}
	if !strings.Contains(out.Report().Text(), "MEMCON") {
		t.Error("report incomplete")
	}
}

func TestRunClosedLoop(t *testing.T) {
	out, err := RunRequest(context.Background(), testRequest("loop"), Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	r := out.(*ClosedLoopResult)
	if r.CapturedWrites == 0 || r.CapturedReads == 0 {
		t.Fatalf("capture empty: %d writes, %d reads", r.CapturedWrites, r.CapturedReads)
	}
	if r.Core.RefreshReduction() <= 0 {
		t.Error("closed-loop MEMCON achieved no reduction")
	}
	if r.Combined < r.Core.RefreshReduction() {
		t.Error("combined savings below MEMCON alone")
	}
	if !strings.Contains(out.Report().Text(), "captured") {
		t.Error("report incomplete")
	}
}

func TestRunProfile(t *testing.T) {
	out, err := RunRequest(context.Background(), testRequest("profile"), Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	r := out.(*ProfileResult)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(r.Rows))
	}
	// Wider guardbands flag at least as many rows.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].WeakRowFrac < r.Rows[i-1].WeakRowFrac-1e-9 {
			t.Errorf("guardband %v flagged fewer rows than %v",
				r.Rows[i].Guardband, r.Rows[i-1].Guardband)
		}
	}
	_ = out.Report().Text()
}

func TestRunAblRemap(t *testing.T) {
	out, err := RunRequest(context.Background(), testRequest("abl-remap"), Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	r := out.(*AblRemapResult)
	if r.TestsFailed == 0 {
		t.Skip("no failing tests at this seed; remap ablation vacuous")
	}
	if r.RemappedRows == 0 {
		t.Error("remap policy never fired")
	}
	if r.RemapReduction < r.PlainReduction {
		t.Errorf("remap lowered reduction: %v vs %v", r.RemapReduction, r.PlainReduction)
	}
	_ = out.Report().Text()
}

func TestCSVExports(t *testing.T) {
	for _, id := range []string{"fig6", "fig9", "fig11", "fig12", "fig14"} {
		out, err := RunRequest(context.Background(), testRequest(id), Runtime{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		text, err := out.Report().CSV()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		lines := strings.Split(strings.TrimSpace(text), "\n")
		if len(lines) < 3 {
			t.Errorf("%s: csv has only %d lines", id, len(lines))
		}
		// Header and every row share the column count.
		cols := strings.Count(lines[0], ",")
		for i, l := range lines {
			if strings.Count(l, ",") != cols {
				t.Errorf("%s: line %d has different column count", id, i)
			}
		}
	}
}
