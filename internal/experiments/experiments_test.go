package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"memcon/internal/report"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9",
		"fig11", "fig12", "fig14", "fig15", "table3", "fig16",
		"fig17", "fig18", "fig19", "minwi", "fleet-ce", "fleet-risk",
		"motiv", "abl-buffer", "abl-accel", "abl-pril", "abl-remap",
		"profile", "vrt", "energy", "loop", "disturb-exposure",
		"disturb-mitigation",
	}
	ids := IDs()
	if len(ids) != len(want) {
		t.Errorf("registry holds %d ids, want %d", len(ids), len(want))
	}
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

// runReport runs req through RunRequest and returns its report.
func runReport(t *testing.T, req Request) *report.Report {
	t.Helper()
	out, err := RunRequest(context.Background(), req, Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	return out.Report()
}

// cells is one data table of a report under test, read the way a
// consumer of the report's JSON reads it: by table key, column name
// and row label.
type cells struct {
	t *testing.T
	*report.Table
}

// table returns rep's data table with the given key, failing the test
// when the report has none.
func table(t *testing.T, rep *report.Report, key string) cells {
	t.Helper()
	for _, tab := range rep.Tables() {
		if tab.Key == key {
			return cells{t, tab}
		}
	}
	t.Fatalf("%s report has no table %q", rep.Prov.Experiment, key)
	return cells{}
}

// labels returns the canonical value of every row's first cell, in row
// order.
func (c cells) labels() []string {
	out := make([]string, len(c.Rows))
	for i, r := range c.Rows {
		out[i] = r.Cells[0].Value()
	}
	return out
}

// at returns the cell in column col of the first row whose leading
// cells have the canonical values labels; no labels selects the first
// row. A missing column or row fails the test.
func (c cells) at(col string, labels ...string) report.Cell {
	c.t.Helper()
	ci := -1
	for i, column := range c.Columns {
		if column.Name == col {
			ci = i
		}
	}
	if ci < 0 {
		c.t.Fatalf("table %q has no column %q", c.Key, col)
	}
rows:
	for _, r := range c.Rows {
		for i, l := range labels {
			if r.Cells[i].Value() != l {
				continue rows
			}
		}
		return r.Cells[ci]
	}
	c.t.Fatalf("table %q has no row %q", c.Key, labels)
	return report.Cell{}
}

// f and i read a float or an integer cell, failing the test when the
// cell holds another kind.
func (c cells) f(col string, labels ...string) float64 {
	c.t.Helper()
	v := c.at(col, labels...)
	if v.Kind != report.KindFloat {
		c.t.Fatalf("table %q column %q row %q is a %v cell, want float", c.Key, col, labels, v.Kind)
	}
	return v.Float
}

func (c cells) i(col string, labels ...string) int64 {
	c.t.Helper()
	v := c.at(col, labels...)
	if v.Kind != report.KindInt {
		c.t.Fatalf("table %q column %q row %q is a %v cell, want int", c.Key, col, labels, v.Kind)
	}
	return v.Int
}

func TestRunFig6MatchesPaper(t *testing.T) {
	rep := runReport(t, testRequest("fig6"))
	configs := table(t, rep, "configs")
	cases := []struct {
		mode string
		lo   string
		want int64
	}{
		{"Read and Compare", "64", 560},
		{"Copy and Compare", "64", 864},
		{"Read and Compare", "128", 480},
		{"Read and Compare", "256", 448},
	}
	for _, c := range cases {
		if got := configs.i("min_write_interval_ms", c.mode, c.lo); got != c.want {
			t.Errorf("%s @%sms: MWI = %d ms, want %d", c.mode, c.lo, got, c.want)
		}
	}
	if !strings.Contains(rep.Text(), "MinWriteInterval") {
		t.Error("report missing MinWriteInterval column")
	}
}

func TestRunAppendix(t *testing.T) {
	rep := runReport(t, testRequest("minwi"))
	costs := table(t, rep, "costs")
	readCmp := costs.i("value", "Read and Compare (2 row reads)")
	copyCmp := costs.i("value", "Copy and Compare (2 reads + 1 write)")
	refresh := costs.i("value", "refresh (tRAS + tRP)")
	if readCmp != 1068 || copyCmp != 1602 || refresh != 39 {
		t.Errorf("appendix costs = read-compare %d, copy-compare %d, refresh %d", readCmp, copyCmp, refresh)
	}
	if !strings.Contains(rep.Text(), "1068") {
		t.Error("report missing cost values")
	}
}

func TestRunTable1(t *testing.T) {
	rep := runReport(t, testRequest("table1"))
	if n := len(table(t, rep, "apps").Rows); n != 12 {
		t.Errorf("apps = %d, want 12", n)
	}
	if !strings.Contains(rep.Text(), "Netflix") {
		t.Error("report missing workloads")
	}
}

func TestRunFig3(t *testing.T) {
	rep := runReport(t, testRequest("fig3"))
	if n := len(table(t, rep, "patterns").Rows); n != 100 {
		t.Errorf("patterns = %d, want 100", n)
	}
	summary := table(t, rep, "summary")
	unique := summary.i("unique_cells")
	conditional := summary.i("conditional_cells")
	if unique == 0 {
		t.Fatal("no failing cells found across 100 patterns")
	}
	if conditional == 0 {
		t.Error("no conditionally failing cells; failures are not data-dependent")
	}
	// The defining observation: most failing cells are conditional.
	frac := float64(conditional) / float64(unique)
	if frac < 0.5 {
		t.Errorf("only %.0f%% of failing cells are data-dependent", 100*frac)
	}
	_ = rep.Text()
}

func TestRunFig4(t *testing.T) {
	req := testRequest("fig4")
	req.Scale = 0.1
	rep := runReport(t, req)
	rows := table(t, rep, "rows")
	benchmarks := rows.labels()
	if n := len(benchmarks); n != 21 || benchmarks[n-1] != "ALL FAIL" {
		t.Fatalf("rows = %q, want 20 benchmarks then ALL FAIL", benchmarks)
	}
	benchmarks = benchmarks[:20]
	allFail := rows.f("avg", "ALL FAIL")
	if allFail <= 0 {
		t.Fatal("ALL FAIL fraction is zero")
	}
	for _, b := range benchmarks {
		avg, lo, hi := rows.f("avg", b), rows.f("min", b), rows.f("max", b)
		if avg > allFail {
			t.Errorf("%s: program content fails more rows (%v) than ALL FAIL (%v)", b, avg, allFail)
		}
		if lo > avg || avg > hi {
			t.Errorf("%s: min/avg/max ordering broken: %v/%v/%v", b, lo, avg, hi)
		}
	}
	if ratioMin := table(t, rep, "summary").f("ratio_min"); ratioMin < 1 {
		t.Errorf("ratio min %v below 1; content should always fail less", ratioMin)
	}
	_ = rep.Text()
}

func TestRunFig7(t *testing.T) {
	rep := runReport(t, testRequest("fig7"))
	apps := table(t, rep, "apps")
	if n := len(apps.Rows); n != 3 {
		t.Fatalf("apps = %d, want 3", n)
	}
	for _, name := range apps.labels() {
		if under := apps.f("under_1ms", name); under < 0.9 {
			t.Errorf("%s: under-1ms fraction %v, want > 0.9", name, under)
		}
		if over := apps.f("over_1024ms", name); over > 0.02 {
			t.Errorf("%s: over-1024ms fraction %v, want < 2%%", name, over)
		}
	}
	_ = rep.Text()
}

func TestRunFig8(t *testing.T) {
	rep := runReport(t, testRequest("fig8"))
	fits := table(t, rep, "fits")
	for _, name := range fits.labels() {
		if r2 := fits.f("r2", name); r2 < 0.8 {
			t.Errorf("%s: R2 = %v, want >= 0.8", name, r2)
		}
		if fits.f("alpha", name) <= 0 {
			t.Errorf("%s: non-positive alpha", name)
		}
	}
	_ = rep.Text()
}

func TestRunFig9(t *testing.T) {
	rep := runReport(t, testRequest("fig9"))
	rows := table(t, rep, "rows")
	if labels := rows.labels(); len(labels) != 13 || labels[12] != "AVERAGE" {
		t.Fatalf("rows = %q, want 12 workloads then AVERAGE", labels)
	}
	if avg := rows.f("long_share", "AVERAGE"); avg < 0.6 {
		t.Errorf("average long-interval share = %v, want > 0.6 (paper: 0.895)", avg)
	}
	_ = rep.Text()
}

func TestRunFig11(t *testing.T) {
	rep := runReport(t, testRequest("fig11"))
	series := table(t, rep, "series")
	apps := series.Columns[1:] // one column per workload after the CIL axis
	if len(apps) != 12 {
		t.Fatalf("apps = %d, want 12", len(apps))
	}
	// The DHR property: P at CIL=1024 must exceed P at CIL=1 for every
	// app, and approach 1 at very large CIL.
	for _, app := range apps {
		name := app.Name
		p1, p1024, p32768 := series.f(name, "1"), series.f(name, "1024"), series.f(name, "32768")
		if p1024 < p1 {
			t.Errorf("%s: P decreased with CIL (%v at 1ms vs %v at 1024ms)", name, p1, p1024)
		}
		if p32768 < 0.5 {
			t.Errorf("%s: P at CIL 32768ms = %v, want approaching 1", name, p32768)
		}
	}
	_ = rep.Text()
}

func TestRunFig12(t *testing.T) {
	rep := runReport(t, testRequest("fig12"))
	series := table(t, rep, "series")
	cils := series.labels()
	// Coverage decreases with CIL for every app.
	for _, app := range series.Columns[1:] {
		name := app.Name
		for i := 1; i < len(cils); i++ {
			if series.f(name, cils[i]) > series.f(name, cils[i-1])+1e-9 {
				t.Errorf("%s: coverage increased from CIL %v to %v", name, cils[i-1], cils[i])
			}
		}
		// At 512-2048 ms coverage should remain substantial.
		if at1024 := series.f(name, "1024"); at1024 < 0.5 {
			t.Errorf("%s: coverage at CIL 1024ms = %v, want > 0.5", name, at1024)
		}
	}
	_ = rep.Text()
}

func TestRunFig14(t *testing.T) {
	rep := runReport(t, testRequest("fig14"))
	rows := table(t, rep, "rows")
	apps := rows.labels()
	if len(apps) != 13 || apps[12] != "UPPER BOUND" {
		t.Fatalf("rows = %q, want 12 workloads then UPPER BOUND", apps)
	}
	for _, name := range apps[:12] {
		for _, col := range []string{"cil_512ms", "cil_1024ms", "cil_2048ms"} {
			if red := rows.f(col, name); red <= 0 || red >= 0.75 {
				t.Errorf("%s %s: reduction %v outside (0, 0.75)", name, col, red)
			}
		}
	}
	if avg := table(t, rep, "summary").f("avg_at_1024"); avg < 0.55 {
		t.Errorf("average reduction %v, want > 0.55 (paper: 64.7-74.5%%)", avg)
	}
	_ = rep.Text()
}

func TestRunFig17(t *testing.T) {
	rep := runReport(t, testRequest("fig17"))
	if avg := table(t, rep, "summary").f("avg_at_1024"); avg < 0.75 {
		t.Errorf("average LO-REF coverage %v, want > 0.75 (paper: ~95%%)", avg)
	}
	_ = rep.Text()
}

func TestRunFig18(t *testing.T) {
	rep := runReport(t, testRequest("fig18"))
	if share := table(t, rep, "summary").f("avg_testing_share"); share > 0.01 {
		t.Errorf("testing share %v of baseline refresh time, want << 1%% (paper: 0.01%%)", share)
	}
	rows := table(t, rep, "rows")
	for _, name := range rows.labels() {
		if share := rows.f("refresh", name); share < 0.2 || share > 0.5 {
			t.Errorf("%s: refresh share %v, want in (0.2, 0.5) given 64.7-74.5%% reduction", name, share)
		}
	}
	_ = rep.Text()
}

func TestRunFig19(t *testing.T) {
	rep := runReport(t, testRequest("fig19"))
	series := table(t, rep, "series")
	for _, cil := range series.labels() {
		diff := series.f("full", cil) - series.f("halved", cil)
		if diff < -0.3 || diff > 0.3 {
			t.Errorf("CIL %v: halved intervals changed P by %v; paper reports little change", cil, diff)
		}
	}
	_ = rep.Text()
}

func TestRunFig15(t *testing.T) {
	rep := runReport(t, testRequest("fig15"))
	speedups := table(t, rep, "cells")
	if n := len(speedups.Rows); n != 12 {
		t.Fatalf("cells = %d, want 12", n)
	}
	for _, cores := range []string{"1", "4"} {
		// Speedup grows with density.
		s8 := speedups.f("speedup", cores, "8Gb", "0.75")
		s32 := speedups.f("speedup", cores, "32Gb", "0.75")
		if s8 <= 1.0 {
			t.Errorf("%s-core 8Gb speedup %v, want > 1", cores, s8)
		}
		if s32 <= s8 {
			t.Errorf("%s-core speedup not growing with density: %v vs %v", cores, s8, s32)
		}
		// 75% reduction beats 60%.
		if s32 < speedups.f("speedup", cores, "32Gb", "0.6") {
			t.Errorf("%s-core: 75%% reduction slower than 60%%", cores)
		}
	}
	_ = rep.Text()
}

func TestRunTable3(t *testing.T) {
	rep := runReport(t, testRequest("table3"))
	losses := table(t, rep, "losses")
	for _, config := range []string{"1-core", "4-core"} {
		for _, tests := range []string{"t256", "t512", "t1024"} {
			loss := losses.f(tests, config)
			if loss < -0.02 {
				t.Errorf("%s %s: negative loss %v", config, tests, loss)
			}
			if loss > 0.08 {
				t.Errorf("%s %s: loss %v, want small (paper < 2%%)", config, tests, loss)
			}
		}
	}
	_ = rep.Text()
}

func TestRunFig16(t *testing.T) {
	rep := runReport(t, testRequest("fig16"))
	speedups := table(t, rep, "cells")
	for _, cores := range []string{"1", "4"} {
		for _, d := range densities {
			s32ms := speedups.f("speedup", cores, d.String(), "32ms")
			raidr := speedups.f("speedup", cores, d.String(), "RAIDR")
			mc := speedups.f("speedup", cores, d.String(), "MEMCON")
			ideal := speedups.f("speedup", cores, d.String(), "64ms")
			if !(s32ms <= raidr+0.02 && raidr <= mc+0.02 && mc <= ideal+0.02) {
				t.Errorf("%s-core %s: ordering broken: 32ms %.3f, RAIDR %.3f, MEMCON %.3f, 64ms %.3f",
					cores, d, s32ms, raidr, mc, ideal)
			}
		}
	}
	_ = rep.Text()
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
	rep := runReport(t, testRequest("motiv"))
	rows := table(t, rep, "rows")
	if rows.i("rows", "truly weak (oracle, any content)") == 0 {
		t.Fatal("oracle found no weak rows; experiment vacuous")
	}
	// The paper's motivation: the naive test must miss a substantial
	// fraction of truly weak rows.
	if rows.i("rows", "MISSED by the naive test") == 0 {
		t.Error("naive neighbour test missed nothing; scrambling model ineffective")
	}
	if missRate := table(t, rep, "summary").f("miss_rate"); missRate < 0.2 {
		t.Errorf("miss rate = %v, expected substantial misses under scrambling", missRate)
	}
	if !strings.Contains(rep.Text(), "MISSED") {
		t.Error("report missing the missed-rows row")
	}
}

// TestRunDisturbExposure pins the census's central claim: relaxing a
// victim to LO-REF quadruples the window its neighbours' activations
// accumulate over, so the largest per-window hammer of a LO-REF victim
// is at least a HI-REF victim's.
func TestRunDisturbExposure(t *testing.T) {
	rep := runReport(t, testRequest("disturb-exposure"))
	census := table(t, rep, "census")
	lo, hi := census.i("max_window_hammer", "LO-REF"), census.i("max_window_hammer", "HI-REF")
	if lo < hi {
		t.Errorf("LO-REF max per-window hammer %d below HI-REF's %d", lo, hi)
	}
}

// TestRunDisturbMitigation pins the sweep's shape, comparing each
// policy's overhead with its residual exposure: the unmitigated
// baseline issues no mitigation operations, no mitigation leaves more
// rows exposed than none, and a tenfold PARA probability issues more
// neighbour refreshes.
func TestRunDisturbMitigation(t *testing.T) {
	rep := runReport(t, testRequest("disturb-mitigation"))
	mit := table(t, rep, "mitigation")
	if ops := mit.i("mitigation_ops", "none"); ops != 0 {
		t.Errorf("none issued %d mitigation ops, want 0", ops)
	}
	none := mit.f("exposed_rows", "none")
	for _, policy := range mit.labels() {
		if exposed := mit.f("exposed_rows", policy); exposed > none {
			t.Errorf("%s leaves %v rows exposed, more than none's %v", policy, exposed, none)
		}
	}
	if lo, hi := mit.i("mitigation_ops", "para:0.001"), mit.i("mitigation_ops", "para:0.01"); hi <= lo {
		t.Errorf("para:0.01 issued %d ops, not more than para:0.001's %d", hi, lo)
	}
}
