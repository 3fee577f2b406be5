package report

import (
	"fmt"
	"math"
	"strings"
)

// Tolerance bounds the numeric drift Diff accepts in float cells: a
// float pair passes when |a-b| <= Abs + Rel*max(|a|,|b|). The zero
// tolerance demands exact equality, which is the right default here —
// every experiment is deterministic, so a reproduced number that moved
// at all has a cause worth finding.
type Tolerance struct {
	Abs float64 `json:"abs"`
	Rel float64 `json:"rel"`
}

// within reports whether the pair passes the tolerance. Non-finite
// values compare by identity, never by distance: NaN only equals NaN,
// and an infinity only equals the same infinity — the arithmetic rule
// would call equal infinities different (Inf-Inf is NaN) and opposite
// infinities equal under any Rel tolerance (Inf <= Rel*Inf).
func (t Tolerance) within(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= t.Abs+t.Rel*math.Max(math.Abs(a), math.Abs(b))
}

// DiffEntry is one out-of-tolerance difference between two reports.
type DiffEntry struct {
	// Path locates the difference: "provenance.seed",
	// "rows[3].cil_1024ms", "curve: row count".
	Path string `json:"path"`
	// Label names the row (its first string cell) when the difference
	// is a cell, easing CI triage.
	Label string `json:"label,omitempty"`
	// A and B are the canonical values on each side.
	A string `json:"a"`
	B string `json:"b"`
	// Delta is |a-b| for float cells when that distance is finite, 0
	// otherwise (non-float cells, NaN or infinite distances).
	Delta float64 `json:"delta,omitempty"`
}

// DiffReport is the outcome of comparing two reports.
type DiffReport struct {
	// Experiment is the id of the reports compared.
	Experiment string `json:"experiment"`
	// Entries holds every out-of-tolerance difference; empty means the
	// reports agree.
	Entries []DiffEntry `json:"entries"`
	// Notes are informational mismatches (version strings, titles)
	// that do not gate.
	Notes []string `json:"notes,omitempty"`
}

// Clean reports whether the diff found no gating differences.
func (d *DiffReport) Clean() bool { return len(d.Entries) == 0 }

// String renders the diff as a text table of differences.
func (d *DiffReport) String() string {
	var b strings.Builder
	if d.Clean() {
		fmt.Fprintf(&b, "report %s: no differences\n", d.Experiment)
	} else {
		fmt.Fprintf(&b, "report %s: %d difference(s)\n\n", d.Experiment, len(d.Entries))
		t := NewTable("diff",
			CStr("path", ""), CStr("label", ""), CStr("a", ""), CStr("b", ""), CStr("delta", ""))
		for _, e := range d.Entries {
			delta := ""
			if e.Delta != 0 {
				delta = fmt.Sprintf("%g", e.Delta)
			}
			t.Add(S(e.Path), S(e.Label), S(e.A), S(e.B), S(delta))
		}
		writeTableText(&b, t)
	}
	for _, n := range d.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Diff compares two reports cell by cell. Provenance fields that
// determine the numbers (experiment, seed, scale, simtime, mixes,
// fleet, mapping, schema) gate like data; version and title mismatches
// are notes.
// Data tables are matched by key; presentation (TextOnly) blocks and
// prose are not compared. Hidden rows are compared like visible ones.
func Diff(a, b *Report, tol Tolerance) *DiffReport {
	d := &DiffReport{Experiment: a.Prov.Experiment}
	add := func(path, label, av, bv string, delta float64) {
		d.Entries = append(d.Entries, DiffEntry{Path: path, Label: label, A: av, B: bv, Delta: delta})
	}
	if a.Schema != b.Schema {
		add("schema", "", fmt.Sprint(a.Schema), fmt.Sprint(b.Schema), 0)
	}
	pa, pb := a.Prov, b.Prov
	for _, f := range []struct {
		path string
		a, b any
	}{
		{"experiment", pa.Experiment, pb.Experiment},
		{"seed", pa.Seed, pb.Seed},
		{"scale", pa.Scale, pb.Scale},
		{"simtime_ns", pa.SimTimeNs, pb.SimTimeNs},
		{"mixes", pa.Mixes, pb.Mixes},
		{"fleet", pa.Fleet, pb.Fleet},
		{"mapping", pa.Mapping, pb.Mapping},
		{"disturb", pa.Disturb, pb.Disturb},
	} {
		if f.a != f.b {
			add("provenance."+f.path, "", fmt.Sprint(f.a), fmt.Sprint(f.b), 0)
		}
	}
	if pa.Title != pb.Title {
		d.Notes = append(d.Notes, fmt.Sprintf("title differs: %q vs %q", pa.Title, pb.Title))
	}
	if pa.Version != pb.Version {
		d.Notes = append(d.Notes, fmt.Sprintf("version differs: %q vs %q", pa.Version, pb.Version))
	}

	ta, tb := a.Tables(), b.Tables()
	byKey := func(ts []*Table, key string) *Table {
		for _, t := range ts {
			if t.Key == key {
				return t
			}
		}
		return nil
	}
	for _, t := range tb {
		if byKey(ta, t.Key) == nil {
			add(t.Key, "", "(absent)", "(present)", 0)
		}
	}
	for _, at := range ta {
		bt := byKey(tb, at.Key)
		if bt == nil {
			add(at.Key, "", "(present)", "(absent)", 0)
			continue
		}
		diffTable(d, at, bt, tol)
	}
	return d
}

func diffTable(d *DiffReport, a, b *Table, tol Tolerance) {
	if len(a.Columns) != len(b.Columns) {
		d.Entries = append(d.Entries, DiffEntry{
			Path: a.Key + ": column count",
			A:    fmt.Sprint(len(a.Columns)), B: fmt.Sprint(len(b.Columns)),
		})
		return
	}
	for i := range a.Columns {
		if a.Columns[i].Name != b.Columns[i].Name {
			d.Entries = append(d.Entries, DiffEntry{
				Path: fmt.Sprintf("%s: column %d", a.Key, i),
				A:    a.Columns[i].Name, B: b.Columns[i].Name,
			})
			return
		}
	}
	if len(a.Rows) != len(b.Rows) {
		d.Entries = append(d.Entries, DiffEntry{
			Path: a.Key + ": row count",
			A:    fmt.Sprint(len(a.Rows)), B: fmt.Sprint(len(b.Rows)),
		})
	}
	n := len(a.Rows)
	if len(b.Rows) < n {
		n = len(b.Rows)
	}
	for r := 0; r < n; r++ {
		ra, rb := a.Rows[r], b.Rows[r]
		label := rowLabel(ra)
		if len(ra.Cells) != len(rb.Cells) {
			d.Entries = append(d.Entries, DiffEntry{
				Path: fmt.Sprintf("%s[%d]: cell count", a.Key, r), Label: label,
				A: fmt.Sprint(len(ra.Cells)), B: fmt.Sprint(len(rb.Cells)),
			})
			continue
		}
		for c := range ra.Cells {
			ca, cb := ra.Cells[c], rb.Cells[c]
			path := fmt.Sprintf("%s[%d].%s", a.Key, r, columnName(a, c))
			if ca.Kind != cb.Kind {
				d.Entries = append(d.Entries, DiffEntry{
					Path: path, Label: label,
					A: ca.Kind.String() + " " + ca.Value(), B: cb.Kind.String() + " " + cb.Value(),
				})
				continue
			}
			equal := ca.Value() == cb.Value()
			var delta float64
			if ca.Kind == KindFloat {
				equal = tol.within(ca.Float, cb.Float)
				// Delta is informational and must stay JSON-encodable:
				// leave it 0 when the distance is NaN or infinite (the
				// A/B values already show what happened).
				if dist := math.Abs(ca.Float - cb.Float); !math.IsNaN(dist) && !math.IsInf(dist, 0) {
					delta = dist
				}
			}
			if !equal {
				d.Entries = append(d.Entries, DiffEntry{
					Path: path, Label: label, A: ca.Value(), B: cb.Value(), Delta: delta,
				})
			}
		}
	}
}

// rowLabel returns the row's first string cell, the conventional row
// name in every experiment table.
func rowLabel(r Row) string {
	for _, c := range r.Cells {
		if c.Kind == KindString {
			return c.Str
		}
	}
	return ""
}

func columnName(t *Table, i int) string {
	if i < len(t.Columns) {
		return t.Columns[i].Name
	}
	return fmt.Sprint(i)
}
