package report

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func sample() *Report {
	r := New()
	r.Prov = Provenance{
		Experiment: "fig14", Title: "Fig. 14: refresh reduction",
		Inputs: Inputs{Seed: 42, Scale: 0.04, SimTimeNs: 200_000, Mixes: 3},
	}
	r.Textf("Fig. 14 — reduction in refresh count with MEMCON\n\n")
	t := NewTable("rows",
		CStr("application", ""),
		CFloat("cil_512ms", "CIL 512ms", "fraction"),
		CFloat("cil_1024ms", "CIL 1024ms", "fraction"))
	t.Add(S("Netflix"), F(0.691, "69.1%"), F(0.678, "67.8%"))
	t.Add(S("SystemMgt"), F(0.657, "65.7%"), F(0.628, "62.8%"))
	t.AddHidden(S("UPPER BOUND"), F(0.75, "75.0%"), F(0.75, "75.0%"))
	r.AddTable(t)
	r.Textf("\nreduction at CIL 1024 ms: avg %s\n", "63.3%")
	return r
}

func TestTextRendering(t *testing.T) {
	got := sample().Text()
	want := "Fig. 14 — reduction in refresh count with MEMCON\n\n" +
		"application  CIL 512ms  CIL 1024ms\n" +
		"-----------  ---------  ----------\n" +
		"Netflix      69.1%      67.8%     \n" +
		"SystemMgt    65.7%      62.8%     \n" +
		"\nreduction at CIL 1024 ms: avg 63.3%\n"
	if got != want {
		t.Errorf("text rendering mismatch:\n--- got ---\n%q\n--- want ---\n%q", got, want)
	}
	if s := sample().String(); s != got {
		t.Error("String() differs from Text()")
	}
}

// TestTableAddValidatesWidth pins the fix for the old experiments table
// builder, where a row wider than the header indexed past the width
// slice and panicked deep inside rendering. Add now fails fast, loudly,
// at the call site.
func TestTableAddValidatesWidth(t *testing.T) {
	tb := NewTable("x", CStr("a", ""), CStr("b", ""))
	for _, cells := range [][]Cell{
		{S("1")},
		{S("1"), S("2"), S("3")},
		nil,
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("Add(%d cells) did not panic", len(cells))
					return
				}
				if !strings.Contains(r.(string), `table "x"`) {
					t.Errorf("panic %v does not name the table", r)
				}
			}()
			tb.Add(cells...)
		}()
	}
	tb.Add(S("1"), S("2")) // matching width still works
	if len(tb.Rows) != 1 {
		t.Errorf("rows = %d, want 1", len(tb.Rows))
	}
}

// TestRaggedTableRenders pins that the renderer itself (reachable with
// ragged rows through a hand-built or JSON-decoded report) pads instead
// of inheriting the index-out-of-range bug.
func TestRaggedTableRenders(t *testing.T) {
	tb := &Table{
		Key:     "ragged",
		Columns: []Column{CStr("a", ""), CStr("b", "")},
		Rows: []Row{
			{Cells: []Cell{S("1"), S("2"), S("extra-wide-cell")}},
			{Cells: []Cell{S("only")}},
		},
	}
	r := New()
	r.Prov.Experiment = "x"
	r.AddTable(tb)
	got := r.Text()
	if !strings.Contains(got, "extra-wide-cell") || !strings.Contains(got, "only") {
		t.Errorf("ragged rows dropped:\n%s", got)
	}
}

func TestHiddenRowsExcludedFromTextWidths(t *testing.T) {
	tb := NewTable("x", CStr("a", ""))
	tb.Add(S("ab"))
	tb.AddHidden(S("a-very-long-hidden-row"))
	r := New().AddTable(tb)
	for _, line := range strings.Split(strings.TrimRight(r.Text(), "\n"), "\n") {
		if len(line) > len("ab") {
			t.Errorf("hidden row influenced text widths: %q", line)
		}
	}
}

func TestCSV(t *testing.T) {
	got, err := sample().CSV()
	if err != nil {
		t.Fatal(err)
	}
	want := "application,cil_512ms,cil_1024ms\n" +
		"Netflix,0.691,0.678\n" +
		"SystemMgt,0.657,0.628\n" +
		"UPPER BOUND,0.75,0.75\n"
	if got != want {
		t.Errorf("csv mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestCSVPrimarySelection(t *testing.T) {
	r := New()
	r.Prov.Experiment = "fig6"
	a := NewTable("configs", CStr("mode", ""))
	a.Add(S("rc"))
	b := NewTable("curve", CInt("time_ms", "", "ms"))
	b.Add(I(112))
	r.AddTable(a).AddTable(b)

	// Default: first data table.
	got, err := r.CSV()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(got, "mode\n") {
		t.Errorf("default primary not first table:\n%s", got)
	}
	// Explicit primary.
	r.Primary = "curve"
	if got, err = r.CSV(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(got, "time_ms\n112\n") {
		t.Errorf("explicit primary ignored:\n%s", got)
	}
	// Unknown primary errors.
	r.Primary = "nope"
	if _, err = r.CSV(); err == nil {
		t.Error("unknown primary accepted")
	}
	// TextOnly tables are not data.
	empty := New()
	empty.Prov.Experiment = "e"
	empty.AddTextTable(NewTable("pivot", CStr("a", "")))
	if _, err := empty.CSV(); err == nil {
		t.Error("presentation-only report rendered CSV")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := sample()
	b, err := r.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if b[len(b)-1] != '\n' {
		t.Error("canonical document missing trailing newline")
	}
	back, err := DecodeBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, back) {
		t.Errorf("round trip changed the report:\n%+v\nvs\n%+v", r, back)
	}
	// Canonical: re-encoding the decoded report is byte-identical.
	b2, err := back.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Error("re-encoded document differs from the original")
	}
}

func TestDecodeRejectsBadSchema(t *testing.T) {
	if _, err := DecodeBytes([]byte(`{"schema":99,"provenance":{"experiment":"x","seed":1,"scale":1,"simtime_ns":1,"mixes":1},"blocks":[]}`)); err == nil {
		t.Error("wrong schema accepted")
	}
	if _, err := DecodeBytes([]byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := DecodeBytes([]byte(`{"blocks":[{"table":{"key":"t","columns":[{"name":"a","kind":"nope"}]}}]}`)); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestDiffClean(t *testing.T) {
	d := Diff(sample(), sample(), Tolerance{})
	if !d.Clean() {
		t.Errorf("identical reports differ:\n%s", d)
	}
	if !strings.Contains(d.String(), "no differences") {
		t.Errorf("clean diff rendering: %q", d.String())
	}
}

func TestDiffFloatTolerance(t *testing.T) {
	a, b := sample(), sample()
	b.Tables()[0].Rows[0].Cells[1].Float += 0.005

	d := Diff(a, b, Tolerance{})
	if d.Clean() {
		t.Fatal("drifted float not flagged at zero tolerance")
	}
	e := d.Entries[0]
	if e.Path != "rows[0].cil_512ms" || e.Label != "Netflix" {
		t.Errorf("entry path/label = %q/%q", e.Path, e.Label)
	}
	if e.Delta < 0.004 || e.Delta > 0.006 {
		t.Errorf("delta = %v", e.Delta)
	}
	if !strings.Contains(d.String(), "cil_512ms") {
		t.Errorf("diff rendering missing path:\n%s", d)
	}

	// Abs and Rel tolerances absorb the drift.
	if d := Diff(a, b, Tolerance{Abs: 0.01}); !d.Clean() {
		t.Errorf("abs tolerance did not absorb drift:\n%s", d)
	}
	if d := Diff(a, b, Tolerance{Rel: 0.01}); !d.Clean() {
		t.Errorf("rel tolerance did not absorb drift:\n%s", d)
	}
}

func TestDiffHiddenRowsCompared(t *testing.T) {
	a, b := sample(), sample()
	rows := b.Tables()[0]
	rows.Rows[2].Cells[1].Float = 0.9 // the hidden UPPER BOUND row
	if Diff(a, b, Tolerance{}).Clean() {
		t.Error("drift in hidden row not flagged")
	}
}

func TestDiffStructural(t *testing.T) {
	a, b := sample(), sample()
	b.Tables()[0].Rows = b.Tables()[0].Rows[:2]
	d := Diff(a, b, Tolerance{})
	if d.Clean() {
		t.Fatal("row-count mismatch not flagged")
	}
	if !strings.Contains(d.Entries[0].Path, "row count") {
		t.Errorf("entry = %+v", d.Entries[0])
	}

	// Missing table.
	c := sample()
	c.Blocks = c.Blocks[:1] // drop the table block
	d = Diff(sample(), c, Tolerance{})
	if d.Clean() {
		t.Error("missing table not flagged")
	}

	// Column rename.
	e := sample()
	e.Tables()[0].Columns[1].Name = "renamed"
	if Diff(sample(), e, Tolerance{}).Clean() {
		t.Error("column rename not flagged")
	}

	// String-cell change.
	f := sample()
	f.Tables()[0].Rows[0].Cells[0].Str = "Nitflix"
	if Diff(sample(), f, Tolerance{Abs: 100}).Clean() {
		t.Error("string drift absorbed by numeric tolerance")
	}
}

func TestDiffProvenanceGates(t *testing.T) {
	a, b := sample(), sample()
	b.Prov.Seed = 7
	b.Prov.Scale = 0.5
	d := Diff(a, b, Tolerance{})
	if len(d.Entries) < 2 {
		t.Fatalf("seed+scale mismatch produced %d entries", len(d.Entries))
	}

	// Version and title are notes, not gates.
	c := sample()
	c.Prov.Version = "v1.2.3"
	c.Prov.Title = "renamed"
	d = Diff(sample(), c, Tolerance{})
	if !d.Clean() {
		t.Errorf("version/title mismatch gated:\n%s", d)
	}
	if len(d.Notes) != 2 {
		t.Errorf("notes = %v", d.Notes)
	}
	if !strings.Contains(d.String(), "note: ") {
		t.Error("notes missing from rendering")
	}
}

func TestCellValueAndText(t *testing.T) {
	cases := []struct {
		c     Cell
		value string
		text  string
	}{
		{S("x"), "x", "x"},
		{Cell{Kind: KindString, Str: "x", Display: "X!"}, "x", "X!"},
		{I(-3), "-3", "-3"},
		{Id(5, "5 ms"), "5", "5 ms"},
		{F(0.25, "25.0%"), "0.25", "25.0%"},
		{Fv(0.1), "0.1", "0.1"},
		{B(true), "true", "true"},
		{Cell{Kind: KindBool, Bool: false, Display: "no"}, "false", "no"},
	}
	for _, c := range cases {
		if got := c.c.Value(); got != c.value {
			t.Errorf("%+v Value = %q, want %q", c.c, got, c.value)
		}
		if got := c.c.Text(); got != c.text {
			t.Errorf("%+v Text = %q, want %q", c.c, got, c.text)
		}
	}
	if KindFloat.String() != "float" || Kind(9).String() == "" {
		t.Error("kind names broken")
	}
}

// floatReport builds a one-column float report for the Diff edge-case
// table: one row per value.
func floatReport(vals ...float64) *Report {
	r := New()
	r.Prov.Experiment = "edge"
	t := NewTable("t", CFloat("v", "", ""))
	for _, v := range vals {
		t.Add(Fv(v))
	}
	r.AddTable(t)
	return r
}

// TestDiffEdgeCases makes the comparison semantics explicit for the
// inputs that used to fall out of the arithmetic incidentally:
// zero-tolerance exact compare, NaN and ±Inf cells, and mismatched row
// counts.
func TestDiffEdgeCases(t *testing.T) {
	inf := math.Inf(1)
	nan := math.NaN()
	cases := []struct {
		name        string
		a, b        *Report
		tol         Tolerance
		wantEntries int
	}{
		{"zero tolerance, exact", floatReport(0.25, -3), floatReport(0.25, -3), Tolerance{}, 0},
		{"zero tolerance, one-ulp drift", floatReport(0.25), floatReport(math.Nextafter(0.25, 1)), Tolerance{}, 1},
		{"NaN equals NaN", floatReport(nan), floatReport(nan), Tolerance{}, 0},
		{"NaN vs finite", floatReport(nan), floatReport(1.0), Tolerance{Abs: inf}, 1},
		{"finite vs NaN", floatReport(1.0), floatReport(nan), Tolerance{Abs: inf}, 1},
		{"+Inf equals +Inf", floatReport(inf), floatReport(inf), Tolerance{}, 0},
		{"-Inf equals -Inf", floatReport(-inf), floatReport(-inf), Tolerance{}, 0},
		{"+Inf vs -Inf ignores Rel", floatReport(inf), floatReport(-inf), Tolerance{Rel: 0.5}, 1},
		{"+Inf vs finite ignores Abs", floatReport(inf), floatReport(1e300), Tolerance{Abs: 1e308}, 1},
		{"rel absorbs proportional drift", floatReport(100), floatReport(100.4), Tolerance{Rel: 0.01}, 0},
		// A row-count mismatch gates once and the common prefix is
		// still compared — a drifted shared row reports separately.
		{"extra rows", floatReport(1, 2), floatReport(1, 2, 3), Tolerance{}, 1},
		{"missing rows plus drift", floatReport(1, 2, 3), floatReport(1.5), Tolerance{}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := Diff(tc.a, tc.b, tc.tol)
			if len(d.Entries) != tc.wantEntries {
				t.Fatalf("got %d entries, want %d:\n%s", len(d.Entries), tc.wantEntries, d)
			}
			// Every diff must stay JSON-encodable, whatever the cells
			// held (NaN/Inf deltas would make Marshal fail).
			if _, err := json.Marshal(d); err != nil {
				t.Fatalf("diff not JSON-encodable: %v", err)
			}
			for _, e := range d.Entries {
				if math.IsNaN(e.Delta) || math.IsInf(e.Delta, 0) {
					t.Errorf("entry %q carries non-finite delta %v", e.Path, e.Delta)
				}
			}
		})
	}
}
