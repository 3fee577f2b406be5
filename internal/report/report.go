// Package report defines the typed, diffable result document every
// experiment produces. A Report is a provenance header (which inputs
// produced the numbers) plus an ordered list of blocks: verbatim prose
// and typed tables (named columns with kinds and units, rows of typed
// cells). Three generic renderers — the fixed-width text table, RFC-4180
// CSV, and a canonical JSON encoding — replace the per-result String
// and CSV methods the experiments layer used to hand-roll, and
// Diff compares two reports cell by cell under a numeric tolerance so a
// reproduced artifact can be regression-gated on its numbers rather
// than on prose.
//
// Reports are deliberately wall-clock-free: provenance records only the
// experiment id, its title and the Inputs that determine the numbers.
// The worker count is excluded on purpose — the repo's determinism
// contract makes every report byte-identical for any -parallel value,
// and recording the worker count would break exactly that property.
package report

import (
	"fmt"
	"strconv"
)

// Kind is the value type of a column or cell.
type Kind uint8

const (
	// KindString cells carry free text (names, labels).
	KindString Kind = iota
	// KindInt cells carry exact integers (counts, nanoseconds).
	KindInt
	// KindFloat cells carry float64 measurements — the values Diff
	// compares under a tolerance.
	KindFloat
	// KindBool cells carry a boolean fact.
	KindBool
)

var kindNames = [...]string{"string", "int", "float", "bool"}

// String returns the canonical kind name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON encodes the kind as its canonical name.
func (k Kind) MarshalJSON() ([]byte, error) {
	if int(k) >= len(kindNames) {
		return nil, fmt.Errorf("report: invalid kind %d", uint8(k))
	}
	return []byte(`"` + kindNames[k] + `"`), nil
}

// UnmarshalJSON decodes a canonical kind name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	s, err := strconv.Unquote(string(b))
	if err != nil {
		return fmt.Errorf("report: kind is not a string: %s", b)
	}
	for i, n := range kindNames {
		if n == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("report: unknown kind %q", s)
}

// Provenance identifies the inputs that produced a report. Two reports
// are comparable when everything but Version matches; Version mismatches
// are surfaced by Diff as a note, not as drift, so a re-run against a
// saved report from an older build still gates on the numbers.
type Provenance struct {
	// Experiment is the registry id (fig14, table3, ...).
	Experiment string `json:"experiment"`
	// Title is the one-line registry description of the experiment.
	Title string `json:"title,omitempty"`
	Inputs
}

// Inputs are the inputs that determine an experiment's report bytes:
// experiments.Request carries them in and Provenance records them,
// under the same JSON keys, so a saved report names the request that
// reproduces it. Every field is literal: a zero Seed means seed 0.
// experiments.Request.Normalize canonicalizes the optional inputs
// (Fleet, Mapping, Disturb) and zeroes each one for every experiment
// whose numbers ignore it, so it is omitted from that experiment's
// JSON and cache key.
type Inputs struct {
	// Seed drives all randomness. Literal: zero is seed 0.
	Seed int64 `json:"seed"`
	// Scale shrinks workload sizes; must lie in (0,1].
	Scale float64 `json:"scale"`
	// SimTimeNs bounds performance-simulation runs (per configuration).
	SimTimeNs int64 `json:"simtime_ns"`
	// Mixes is the multiprogrammed-mix count for performance runs.
	Mixes int `json:"mixes"`
	// Fleet is the module count of fleet-scale experiments. Normalize
	// derives the scale-proportional default (160 at scale 1, floor 4)
	// when a fleet experiment leaves it below 1.
	Fleet int `json:"fleet,omitempty"`
	// Mapping names the vendor address-mapping scheme of chip-level
	// experiments (dram.MappingNames lists the registry); Normalize
	// canonicalizes "default" to "".
	Mapping string `json:"mapping,omitempty"`
	// Disturb is the RowHammer mitigation spec of read-disturb
	// experiments (refresh.ParseMitigation syntax, e.g. "para:0.001");
	// Normalize canonicalizes "none" to "" and parameter spellings to
	// one form.
	Disturb string `json:"disturb,omitempty"`
	// Version is an opaque caller-supplied build identifier (for
	// example a git-describe string); empty means unrecorded. It never
	// influences the numbers, but it appears in the report bytes, so it
	// participates in the cache key.
	Version string `json:"version,omitempty"`
}

// Cell is one typed value plus an optional display override. The text
// renderer prints Display when set and the canonical rendering of the
// typed value otherwise; CSV and Diff always use the typed value, so
// presentation rounding ("64.4%") never hides numeric drift.
type Cell struct {
	Kind    Kind    `json:"k"`
	Str     string  `json:"s,omitempty"`
	Int     int64   `json:"i,omitempty"`
	Float   float64 `json:"f,omitempty"`
	Bool    bool    `json:"b,omitempty"`
	Display string  `json:"d,omitempty"`
}

// S returns a string cell displayed verbatim.
func S(v string) Cell { return Cell{Kind: KindString, Str: v} }

// I returns an integer cell with the default (base-10) rendering.
func I(v int64) Cell { return Cell{Kind: KindInt, Int: v} }

// Id returns an integer cell with an explicit text rendering.
func Id(v int64, display string) Cell { return Cell{Kind: KindInt, Int: v, Display: display} }

// F returns a float cell with an explicit text rendering. Floats almost
// always want presentation rounding, so the display is mandatory here;
// use Fv for the rare full-precision cell.
func F(v float64, display string) Cell { return Cell{Kind: KindFloat, Float: v, Display: display} }

// Fv returns a float cell rendered at full precision.
func Fv(v float64) Cell { return Cell{Kind: KindFloat, Float: v} }

// B returns a boolean cell.
func B(v bool) Cell { return Cell{Kind: KindBool, Bool: v} }

// Value renders the cell's typed value canonically: strings verbatim,
// integers in base 10, floats via strconv 'g' at full precision, bools
// as true/false. This is what CSV emits and what Diff reports.
func (c Cell) Value() string {
	switch c.Kind {
	case KindInt:
		return strconv.FormatInt(c.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(c.Float, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(c.Bool)
	default:
		return c.Str
	}
}

// Text renders the cell for the fixed-width table: the display override
// when present, the canonical value otherwise.
func (c Cell) Text() string {
	if c.Display != "" {
		return c.Display
	}
	return c.Value()
}

// Column describes one table column.
type Column struct {
	// Name is the machine-readable identifier (CSV/JSON header).
	Name string `json:"name"`
	// Label is the text-table header, verbatim — it may be empty (an
	// unlabeled text column). The constructors default it to Name.
	Label string `json:"label,omitempty"`
	// Kind is the column's value type. Cells in the column must match.
	Kind Kind `json:"kind"`
	// Unit documents the measurement unit ("ms", "ns", "fraction").
	Unit string `json:"unit,omitempty"`
}

func (c Column) label() string { return c.Label }

func orName(name, label string) string {
	if label == "" {
		return name
	}
	return label
}

// CStr declares a string column. An empty label defaults to the name.
func CStr(name, label string) Column {
	return Column{Name: name, Label: orName(name, label), Kind: KindString}
}

// CInt declares an integer column with an optional unit.
func CInt(name, label, unit string) Column {
	return Column{Name: name, Label: orName(name, label), Kind: KindInt, Unit: unit}
}

// CFloat declares a float column with an optional unit.
func CFloat(name, label, unit string) Column {
	return Column{Name: name, Label: orName(name, label), Kind: KindFloat, Unit: unit}
}

// CBool declares a boolean column.
func CBool(name, label string) Column {
	return Column{Name: name, Label: orName(name, label), Kind: KindBool}
}

// Row is one table row. Hidden rows carry data that the text rendering
// elides (for example Fig. 3's random-pattern tail); they still appear
// in CSV and JSON and are still diffed.
type Row struct {
	Cells  []Cell `json:"cells"`
	Hidden bool   `json:"hidden,omitempty"`
}

// Table is a named grid of typed cells.
type Table struct {
	// Key names the table within its report ("cells", "curve"); Diff
	// matches tables across reports by key.
	Key     string   `json:"key"`
	Columns []Column `json:"columns"`
	Rows    []Row    `json:"rows"`
}

// NewTable builds a table with the given key and columns.
func NewTable(key string, cols ...Column) *Table {
	return &Table{Key: key, Columns: cols}
}

// Add appends a visible row. The cell count must match the column
// count; a mismatch is a programming error at the call site (the old
// experiments table builder silently accepted ragged rows and then
// panicked with an index error deep inside rendering), so Add panics
// immediately with a message naming the table.
func (t *Table) Add(cells ...Cell) *Table {
	t.checkWidth(cells)
	t.Rows = append(t.Rows, Row{Cells: cells})
	return t
}

// AddHidden appends a row elided from the text rendering but present in
// CSV, JSON, and diffs.
func (t *Table) AddHidden(cells ...Cell) *Table {
	t.checkWidth(cells)
	t.Rows = append(t.Rows, Row{Cells: cells, Hidden: true})
	return t
}

// VisibleRows counts the rows the text rendering will show — handy for
// builders capping a table at one screenful.
func (t *Table) VisibleRows() int {
	n := 0
	for _, r := range t.Rows {
		if !r.Hidden {
			n++
		}
	}
	return n
}

func (t *Table) checkWidth(cells []Cell) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("report: table %q row has %d cells, want %d", t.Key, len(cells), len(t.Columns)))
	}
}

// Block is one report fragment: verbatim prose, a table, or both never
// — exactly one of Text and Table is set. TextOnly marks presentation
// blocks (per-core pivots of a flat data table, histograms rendered as
// prose) that CSV and Diff skip; DataOnly marks machine-facing tables
// the text rendering omits.
type Block struct {
	Text     string `json:"text,omitempty"`
	Table    *Table `json:"table,omitempty"`
	TextOnly bool   `json:"text_only,omitempty"`
	DataOnly bool   `json:"data_only,omitempty"`
}

// Report is the typed result document of one experiment run.
type Report struct {
	// Schema versions the encoding; bump on incompatible change.
	Schema int `json:"schema"`
	// Prov records the inputs that produced the numbers.
	Prov Provenance `json:"provenance"`
	// Primary names the table the CSV renderer emits when the report
	// holds several; empty selects the first data table.
	Primary string  `json:"primary,omitempty"`
	Blocks  []Block `json:"blocks"`
}

// SchemaVersion is the current canonical-JSON schema.
const SchemaVersion = 1

// New returns an empty report; the caller stamps Prov once the
// inputs are known.
func New() *Report {
	return &Report{Schema: SchemaVersion}
}

// Textf appends a verbatim prose block (rendered by Text exactly as
// formatted, including any embedded newlines).
func (r *Report) Textf(format string, args ...any) *Report {
	r.Blocks = append(r.Blocks, Block{Text: fmt.Sprintf(format, args...)})
	return r
}

// AddTable appends a table rendered in every format.
func (r *Report) AddTable(t *Table) *Report {
	r.Blocks = append(r.Blocks, Block{Table: t})
	return r
}

// AddTextTable appends a presentation-only table: rendered in the text
// output, skipped by CSV and Diff. Pair it with a DataOnly table
// carrying the same numbers in machine shape.
func (r *Report) AddTextTable(t *Table) *Report {
	r.Blocks = append(r.Blocks, Block{Table: t, TextOnly: true})
	return r
}

// AddDataTable appends a machine-only table: absent from the text
// rendering, present in CSV, JSON, and diffs.
func (r *Report) AddDataTable(t *Table) *Report {
	r.Blocks = append(r.Blocks, Block{Table: t, DataOnly: true})
	return r
}

// Tables returns the report's data tables (the ones CSV and Diff see),
// in order.
func (r *Report) Tables() []*Table {
	var out []*Table
	for _, b := range r.Blocks {
		if b.Table != nil && !b.TextOnly {
			out = append(out, b.Table)
		}
	}
	return out
}

// String renders the report as text, making *Report a fmt.Stringer.
func (r *Report) String() string { return r.Text() }
