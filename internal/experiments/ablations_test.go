package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestAblationsRegistered(t *testing.T) {
	for _, id := range []string{"abl-buffer", "abl-accel", "abl-pril"} {
		if _, err := Describe(id); err != nil {
			t.Errorf("ablation %q not registered: %v", id, err)
		}
	}
}

func TestRunAblBuffer(t *testing.T) {
	rep := runReport(t, testRequest("abl-buffer"))
	rows := table(t, rep, "rows")
	capacities := rows.labels()
	if len(capacities) < 4 {
		t.Fatalf("rows = %d", len(capacities))
	}
	// Unbounded must discard nothing; a starved buffer must discard and
	// must not beat the unbounded reduction.
	unbounded, starved := capacities[0], capacities[len(capacities)-1]
	if unbounded != "0" || rows.i("discards", unbounded) != 0 {
		t.Errorf("unbounded row: capacity %s, discards %d", unbounded, rows.i("discards", unbounded))
	}
	if rows.i("discards", starved) == 0 {
		t.Error("starved buffer discarded nothing; sweep is vacuous")
	}
	if s, u := rows.f("reduction", starved), rows.f("reduction", unbounded); s > u+1e-9 {
		t.Errorf("starved reduction %v beats unbounded %v", s, u)
	}
	if !strings.Contains(rep.Text(), "unbounded") {
		t.Error("report missing capacity labels")
	}
}

func TestRunAblAccel(t *testing.T) {
	rep := runReport(t, testRequest("abl-accel"))
	rows := table(t, rep, "rows")
	variants := rows.labels()
	if len(variants) != 3 {
		t.Fatalf("rows = %d, want 3", len(variants))
	}
	if mwi := rows.i("min_write_interval_ms", variants[0]); mwi != 864 {
		t.Errorf("baseline MWI = %d ms, want 864", mwi)
	}
	for i := 1; i < len(variants); i++ {
		if rows.i("min_write_interval_ms", variants[i]) > rows.i("min_write_interval_ms", variants[i-1]) {
			t.Error("acceleration increased MinWriteInterval")
		}
	}
	_ = rep.Text()
}

func TestRunAblPril(t *testing.T) {
	rep := runReport(t, testRequest("abl-pril"))
	if !table(t, rep, "summary").at("identical").Bool {
		t.Error("bitmap PRIL not prediction-equivalent to buffer PRIL")
	}
	if table(t, rep, "rows").i("predictions", "write-buffer (paper)") == 0 {
		t.Error("no predictions made; comparison vacuous")
	}
	_ = rep.Text()
}

func TestRunEnergy(t *testing.T) {
	rep := runReport(t, testRequest("energy"))
	rows := table(t, rep, "rows")
	if n := len(rows.Rows); n != 5 {
		t.Fatalf("rows = %d, want 5", n)
	}
	// Ordering: the baseline saves nothing; every alternative saves
	// something; MEMCON sits between RAIDR and the 64 ms ideal.
	if base := rows.f("savings", "16ms baseline"); base != 0 {
		t.Errorf("baseline savings = %v", base)
	}
	raidr := rows.f("savings", "RAIDR")
	mc := rows.f("savings", "MEMCON")
	ideal := rows.f("savings", "64ms ideal")
	if s32 := rows.f("savings", "32ms"); mc <= s32 {
		t.Errorf("MEMCON savings %v not above the 32ms policy %v", mc, s32)
	}
	// Energy ordering with a small tolerance: testing energy is heavier
	// per op than a refresh, so MEMCON sits near RAIDR energetically and
	// below the ideal.
	if !(raidr <= mc+0.03 && mc <= ideal+1e-9) {
		t.Errorf("energy ordering broken: RAIDR %v, MEMCON %v, ideal %v", raidr, mc, ideal)
	}
	// Testing energy must stay a small fraction of refresh energy.
	if testMJ, refreshMJ := rows.f("testing_mj", "MEMCON"), rows.f("refresh_mj", "MEMCON"); testMJ > 0.10*refreshMJ {
		t.Errorf("testing energy %v not small vs refresh %v", testMJ, refreshMJ)
	}
	if !strings.Contains(rep.Text(), "MEMCON") {
		t.Error("report missing policies")
	}
}

func TestRunVRT(t *testing.T) {
	rep := runReport(t, testRequest("vrt"))
	if n := len(table(t, rep, "checkpoints").Rows); n != 12 {
		t.Fatalf("checkpoints = %d, want 12", n)
	}
	summary := table(t, rep, "summary")
	raidr, memcon := summary.i("total_raidr"), summary.i("total_memcon")
	// MEMCON's bounded exposure must beat the decaying one-shot profile.
	if memcon >= raidr {
		t.Errorf("MEMCON escapes %d not below one-shot profile escapes %d", memcon, raidr)
	}
	if raidr == 0 {
		t.Error("one-shot profile never escaped; VRT population too small to mean anything")
	}
	if !strings.Contains(rep.Text(), "MEMCON") {
		t.Error("report incomplete")
	}
}

func TestRunClosedLoop(t *testing.T) {
	rep := runReport(t, testRequest("loop"))
	rows := table(t, rep, "rows")
	writes, reads := rows.f("result", "captured write-backs"), rows.f("result", "captured reads")
	if writes == 0 || reads == 0 {
		t.Fatalf("capture empty: %v writes, %v reads", writes, reads)
	}
	reduction := rows.f("result", "MEMCON refresh reduction")
	if reduction <= 0 {
		t.Error("closed-loop MEMCON achieved no reduction")
	}
	if rows.f("result", "combined savings") < reduction {
		t.Error("combined savings below MEMCON alone")
	}
	if !strings.Contains(rep.Text(), "captured") {
		t.Error("report incomplete")
	}
}

func TestRunProfile(t *testing.T) {
	rep := runReport(t, testRequest("profile"))
	rows := table(t, rep, "rows")
	guards := rows.labels()
	if len(guards) != 4 {
		t.Fatalf("rows = %d, want 4", len(guards))
	}
	// Wider guardbands flag at least as many rows.
	for i := 1; i < len(guards); i++ {
		if rows.f("weak_row_frac", guards[i]) < rows.f("weak_row_frac", guards[i-1])-1e-9 {
			t.Errorf("guardband %v flagged fewer rows than %v", guards[i], guards[i-1])
		}
	}
	_ = rep.Text()
}

func TestRunAblRemap(t *testing.T) {
	rep := runReport(t, testRequest("abl-remap"))
	summary := table(t, rep, "summary")
	if summary.i("tests_failed") == 0 {
		t.Skip("no failing tests at this seed; remap ablation vacuous")
	}
	if summary.i("remapped_rows") == 0 {
		t.Error("remap policy never fired")
	}
	rows := table(t, rep, "rows")
	plain, remap := rows.f("reduction", "HI-REF mitigation only (paper)"), rows.f("reduction", "with remap to screened spares")
	if remap < plain {
		t.Errorf("remap lowered reduction: %v vs %v", remap, plain)
	}
	_ = rep.Text()
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
