package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"memcon/internal/dram"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9",
		"fig11", "fig12", "fig14", "fig15", "table3", "fig16",
		"fig17", "fig18", "fig19", "minwi", "fleet-ce", "fleet-risk",
	}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	for _, id := range ids {
		desc, err := Describe(id)
		if err != nil || desc == "" {
			t.Errorf("Describe(%q) = %q, %v", id, desc, err)
		}
	}
	if _, err := Describe("nope"); err == nil {
		t.Error("unknown id described")
	}
	if _, err := RunRequest(context.Background(), DefaultRequest("nope"), Runtime{}); err == nil {
		t.Error("unknown id ran")
	}
}

// TestRunStampsProvenance pins that the dispatcher records the
// normalized inputs (and only the inputs — Workers deliberately absent
// from the Provenance type) on every result's report.
func TestRunStampsProvenance(t *testing.T) {
	req := testRequest("minwi")
	req.Version = "test-build"
	out, err := RunRequest(context.Background(), req, Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	p := out.Report().Prov
	if p.Experiment != "minwi" || p.Seed != req.Seed || p.Scale != req.Scale ||
		p.SimTimeNs != req.SimTimeNs || p.Mixes != req.Mixes || p.Version != "test-build" {
		t.Errorf("provenance = %+v", p)
	}
	if p.Title == "" {
		t.Error("provenance missing the registry description")
	}
}

func TestRunFig6MatchesPaper(t *testing.T) {
	out, err := RunRequest(context.Background(), testRequest("fig6"), Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := out.(*Fig6Result)
	if !ok {
		t.Fatalf("wrong result type %T", out)
	}
	find := func(mode string, loMs dram.Nanoseconds) dram.Nanoseconds {
		for _, c := range r.Configs {
			if c.Mode.String() == mode && c.LoRef == loMs*dram.Millisecond {
				return c.MinWriteInterval / dram.Millisecond
			}
		}
		return -1
	}
	cases := []struct {
		mode string
		lo   dram.Nanoseconds
		want dram.Nanoseconds
	}{
		{"Read and Compare", 64, 560},
		{"Copy and Compare", 64, 864},
		{"Read and Compare", 128, 480},
		{"Read and Compare", 256, 448},
	}
	for _, c := range cases {
		if got := find(c.mode, c.lo); got != c.want {
			t.Errorf("%s @%dms: MWI = %d ms, want %d", c.mode, c.lo, got, c.want)
		}
	}
	if !strings.Contains(out.Report().Text(), "MinWriteInterval") {
		t.Error("report missing MinWriteInterval column")
	}
}

func TestRunAppendix(t *testing.T) {
	out, err := RunRequest(context.Background(), testRequest("minwi"), Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	r := out.(*AppendixResult)
	if r.Costs.ReadCompare != 1068 || r.Costs.CopyCompare != 1602 || r.Costs.RefreshCost != 39 {
		t.Errorf("appendix costs = %+v", r.Costs)
	}
	if !strings.Contains(out.Report().Text(), "1068") {
		t.Error("report missing cost values")
	}
}

func TestRunTable1(t *testing.T) {
	out, err := RunRequest(context.Background(), testRequest("table1"), Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	r := out.(*Table1Result)
	if len(r.Apps) != 12 {
		t.Errorf("apps = %d, want 12", len(r.Apps))
	}
	if !strings.Contains(out.Report().Text(), "Netflix") {
		t.Error("report missing workloads")
	}
}

func TestRunFig3(t *testing.T) {
	out, err := RunRequest(context.Background(), testRequest("fig3"), Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	r := out.(*Fig3Result)
	if r.Patterns != 100 {
		t.Errorf("patterns = %d, want 100", r.Patterns)
	}
	if r.UniqueCells == 0 {
		t.Fatal("no failing cells found across 100 patterns")
	}
	if r.ConditionalCells == 0 {
		t.Error("no conditionally failing cells; failures are not data-dependent")
	}
	// The defining observation: most failing cells are conditional.
	frac := float64(r.ConditionalCells) / float64(r.UniqueCells)
	if frac < 0.5 {
		t.Errorf("only %.0f%% of failing cells are data-dependent", 100*frac)
	}
	_ = out.Report().Text()
}

func TestRunFig4(t *testing.T) {
	req := testRequest("fig4")
	req.Scale = 0.1
	out, err := RunRequest(context.Background(), req, Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	r := out.(*Fig4Result)
	if len(r.Rows) != 20 {
		t.Fatalf("benchmarks = %d, want 20", len(r.Rows))
	}
	if r.AllFail <= 0 {
		t.Fatal("ALL FAIL fraction is zero")
	}
	for _, row := range r.Rows {
		if row.Avg > r.AllFail {
			t.Errorf("%s: program content fails more rows (%v) than ALL FAIL (%v)", row.Benchmark, row.Avg, r.AllFail)
		}
		if row.Min > row.Avg || row.Avg > row.Max {
			t.Errorf("%s: min/avg/max ordering broken: %v/%v/%v", row.Benchmark, row.Min, row.Avg, row.Max)
		}
	}
	if r.RatioMin < 1 {
		t.Errorf("ratio min %v below 1; content should always fail less", r.RatioMin)
	}
	_ = out.Report().Text()
}

func TestRunFig7(t *testing.T) {
	out, err := RunRequest(context.Background(), testRequest("fig7"), Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	r := out.(*Fig7Result)
	if len(r.Apps) != 3 {
		t.Fatalf("apps = %d, want 3", len(r.Apps))
	}
	for _, a := range r.Apps {
		if a.Under1ms < 0.9 {
			t.Errorf("%s: under-1ms fraction %v, want > 0.9", a.Name, a.Under1ms)
		}
		if a.Over1024ms > 0.02 {
			t.Errorf("%s: over-1024ms fraction %v, want < 2%%", a.Name, a.Over1024ms)
		}
	}
	_ = out.Report().Text()
}

func TestRunFig8(t *testing.T) {
	out, err := RunRequest(context.Background(), testRequest("fig8"), Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	r := out.(*Fig8Result)
	for _, a := range r.Apps {
		if a.Fit.R2 < 0.8 {
			t.Errorf("%s: R2 = %v, want >= 0.8", a.Name, a.Fit.R2)
		}
		if a.Fit.Dist.Alpha <= 0 {
			t.Errorf("%s: non-positive alpha", a.Name)
		}
	}
	_ = out.Report().Text()
}

func TestRunFig9(t *testing.T) {
	out, err := RunRequest(context.Background(), testRequest("fig9"), Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	r := out.(*Fig9Result)
	if len(r.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(r.Rows))
	}
	if r.Average < 0.6 {
		t.Errorf("average long-interval share = %v, want > 0.6 (paper: 0.895)", r.Average)
	}
	_ = out.Report().Text()
}

func TestRunFig11(t *testing.T) {
	out, err := RunRequest(context.Background(), testRequest("fig11"), Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	r := out.(*Fig11Result)
	if len(r.Apps) != 12 || len(r.P) != 12 {
		t.Fatalf("apps = %d, want 12", len(r.Apps))
	}
	// The DHR property: P at CIL=1024 must exceed P at CIL=1 for every
	// app, and approach 1 at very large CIL.
	idx := func(c float64) int {
		for i, v := range r.CILs {
			if v == c {
				return i
			}
		}
		return -1
	}
	i1, i1024, i32768 := idx(1), idx(1024), idx(32768)
	for a, name := range r.Apps {
		if r.P[a][i1024] < r.P[a][i1] {
			t.Errorf("%s: P decreased with CIL (%v at 1ms vs %v at 1024ms)", name, r.P[a][i1], r.P[a][i1024])
		}
		if r.P[a][i32768] < 0.5 {
			t.Errorf("%s: P at CIL 32768ms = %v, want approaching 1", name, r.P[a][i32768])
		}
	}
	_ = out.Report().Text()
}

func TestRunFig12(t *testing.T) {
	out, err := RunRequest(context.Background(), testRequest("fig12"), Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	r := out.(*Fig12Result)
	// Coverage decreases with CIL for every app.
	for a, name := range r.Apps {
		for i := 1; i < len(r.CILs); i++ {
			if r.Coverage[a][i] > r.Coverage[a][i-1]+1e-9 {
				t.Errorf("%s: coverage increased from CIL %v to %v", name, r.CILs[i-1], r.CILs[i])
			}
		}
		// At 512-2048 ms coverage should remain substantial.
		var at1024 float64
		for i, c := range r.CILs {
			if c == 1024 {
				at1024 = r.Coverage[a][i]
			}
		}
		if at1024 < 0.5 {
			t.Errorf("%s: coverage at CIL 1024ms = %v, want > 0.5", name, at1024)
		}
	}
	_ = out.Report().Text()
}

func TestRunFig14(t *testing.T) {
	out, err := RunRequest(context.Background(), testRequest("fig14"), Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	r := out.(*Fig14Result)
	if len(r.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(r.Rows))
	}
	for _, row := range r.Rows {
		for i, red := range row.Reduction {
			if red <= 0 || red >= 0.75 {
				t.Errorf("%s CIL %d: reduction %v outside (0, 0.75)", row.Name, i, red)
			}
		}
	}
	if r.AvgAt1024 < 0.55 {
		t.Errorf("average reduction %v, want > 0.55 (paper: 64.7-74.5%%)", r.AvgAt1024)
	}
	_ = out.Report().Text()
}

func TestRunFig17(t *testing.T) {
	out, err := RunRequest(context.Background(), testRequest("fig17"), Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	r := out.(*Fig17Result)
	if r.AvgAt1024 < 0.75 {
		t.Errorf("average LO-REF coverage %v, want > 0.75 (paper: ~95%%)", r.AvgAt1024)
	}
	_ = out.Report().Text()
}

func TestRunFig18(t *testing.T) {
	out, err := RunRequest(context.Background(), testRequest("fig18"), Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	r := out.(*Fig18Result)
	if r.AvgTestingShare > 0.01 {
		t.Errorf("testing share %v of baseline refresh time, want << 1%% (paper: 0.01%%)", r.AvgTestingShare)
	}
	for _, row := range r.Rows {
		if row.RefreshShare < 0.2 || row.RefreshShare > 0.5 {
			t.Errorf("%s: refresh share %v, want in (0.2, 0.5) given 64.7-74.5%% reduction", row.Name, row.RefreshShare)
		}
	}
	_ = out.Report().Text()
}

func TestRunFig19(t *testing.T) {
	out, err := RunRequest(context.Background(), testRequest("fig19"), Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	r := out.(*Fig19Result)
	for i := range r.CILs {
		diff := r.Full[i] - r.Half[i]
		if diff < -0.3 || diff > 0.3 {
			t.Errorf("CIL %v: halved intervals changed P by %v; paper reports little change", r.CILs[i], diff)
		}
	}
	_ = out.Report().Text()
}

func TestRunFig15(t *testing.T) {
	out, err := RunRequest(context.Background(), testRequest("fig15"), Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	r := out.(*Fig15Result)
	if len(r.Cells) != 12 {
		t.Fatalf("cells = %d, want 12", len(r.Cells))
	}
	for _, cores := range []int{1, 4} {
		// Speedup grows with density.
		s8 := r.Speedup(cores, dram.Density8Gb, 0.75)
		s32 := r.Speedup(cores, dram.Density32Gb, 0.75)
		if s8 <= 1.0 {
			t.Errorf("%d-core 8Gb speedup %v, want > 1", cores, s8)
		}
		if s32 <= s8 {
			t.Errorf("%d-core speedup not growing with density: %v vs %v", cores, s8, s32)
		}
		// 75% reduction beats 60%.
		if r.Speedup(cores, dram.Density32Gb, 0.75) < r.Speedup(cores, dram.Density32Gb, 0.60) {
			t.Errorf("%d-core: 75%% reduction slower than 60%%", cores)
		}
	}
	_ = out.Report().Text()
}

func TestRunTable3(t *testing.T) {
	out, err := RunRequest(context.Background(), testRequest("table3"), Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	r := out.(*Table3Result)
	for _, cores := range []int{1, 4} {
		for _, tests := range []int{256, 512, 1024} {
			loss := r.Loss(cores, tests)
			if loss < -0.02 {
				t.Errorf("%d-core %d tests: negative loss %v", cores, tests, loss)
			}
			if loss > 0.08 {
				t.Errorf("%d-core %d tests: loss %v, want small (paper < 2%%)", cores, tests, loss)
			}
		}
	}
	_ = out.Report().Text()
}

func TestRunFig16(t *testing.T) {
	out, err := RunRequest(context.Background(), testRequest("fig16"), Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	r := out.(*Fig16Result)
	for _, cores := range []int{1, 4} {
		for _, d := range densities {
			s32ms := r.Speedup(cores, d, "32ms")
			raidr := r.Speedup(cores, d, "RAIDR")
			mc := r.Speedup(cores, d, "MEMCON")
			ideal := r.Speedup(cores, d, "64ms")
			if !(s32ms <= raidr+0.02 && raidr <= mc+0.02 && mc <= ideal+0.02) {
				t.Errorf("%d-core %s: ordering broken: 32ms %.3f, RAIDR %.3f, MEMCON %.3f, 64ms %.3f",
					cores, d, s32ms, raidr, mc, ideal)
			}
		}
	}
	_ = out.Report().Text()
}

// TestRAIDRPaperConfiguration pins the RAIDR number Fig. 16 and the
// energy comparison share. The paper's RAIDR keeps 16% of rows at 16 ms
// and 84% at 64 ms, a 63% reduction over the all-16 ms baseline, which
// stays below the 75% of keeping every row at LO-REF.
func TestRAIDRPaperConfiguration(t *testing.T) {
	weak, hi, lo := 0.16, 16.0, 64.0 // weak-row fraction, intervals in ms
	if want := 1 - (weak + (1-weak)*hi/lo); math.Abs(raidrReduction-want) > 1e-12 {
		t.Errorf("raidrReduction = %v, want 1 - (0.16 + 0.84*16/64) = %v", raidrReduction, want)
	}
	if upper := 1 - hi/lo; raidrReduction >= upper {
		t.Errorf("raidrReduction = %v, want below the %v bound of all rows at LO-REF", raidrReduction, upper)
	}
}

func TestRunMotivation(t *testing.T) {
	out, err := RunRequest(context.Background(), testRequest("motiv"), Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	r := out.(*MotivationResult)
	if r.TrueWeakRows == 0 {
		t.Fatal("oracle found no weak rows; experiment vacuous")
	}
	// The paper's motivation: the naive test must miss a substantial
	// fraction of truly weak rows.
	if r.Missed == 0 {
		t.Error("naive neighbour test missed nothing; scrambling model ineffective")
	}
	if r.MissRate() < 0.2 {
		t.Errorf("miss rate = %v, expected substantial misses under scrambling", r.MissRate())
	}
	if !strings.Contains(out.Report().Text(), "MISSED") {
		t.Error("report missing the missed-rows row")
	}
}
