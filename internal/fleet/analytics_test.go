package fleet

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"testing"

	"memcon/internal/dram"
)

// oracleAnalyze recomputes the full analytics by brute force: repeated
// linear scans over the raw event list instead of the single-pass
// grouped maps of Analyze. Quadratic and slow, but independently
// derived from the definitions — the differential test holds the real
// implementation against it.
func oracleAnalyze(log *Log) *Analytics {
	a := &Analytics{Events: len(log.Events)}
	a.EarlyEpochs = log.Epochs / 4
	if a.EarlyEpochs < 1 {
		a.EarlyEpochs = 1
	}
	earlyNs := int64(a.EarlyEpochs) * log.EpochNs

	// Distinct bank keys, in order.
	var keys []BankKey
	for _, ev := range log.Events {
		k := BankKey{Module: ev.Module, Rank: ev.Rank, Bank: ev.Bank}
		found := false
		for _, seen := range keys {
			if seen == k {
				found = true
				break
			}
		}
		if !found {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })

	classIdx := map[string]int{}
	for i, n := range ClassNames() {
		classIdx[n] = i
	}
	for _, k := range keys {
		var evs []Event
		for _, ev := range log.Events {
			if ev.Module == k.Module && ev.Rank == k.Rank && ev.Bank == k.Bank {
				evs = append(evs, ev)
			}
		}
		bc := BankCluster{Key: k, Events: len(evs)}
		// Distinct cells by linear search.
		var cells [][2]uint32
		for _, ev := range evs {
			rc := [2]uint32{ev.Row, ev.Col}
			dup := false
			for _, c := range cells {
				if c == rc {
					dup = true
					break
				}
			}
			if !dup {
				cells = append(cells, rc)
			}
			// Total CE count of this cell.
			n := 0
			for _, other := range evs {
				if other.Row == ev.Row && other.Col == ev.Col {
					n++
				}
			}
			if n > a.MaxRepeat {
				a.MaxRepeat = n
			}
		}
		bc.Unique = len(cells)
		for _, c := range cells {
			// c is the first cell of its row (resp. column)?
			firstRow, firstCol := true, true
			span, colSpan := 0, 0
			for _, o := range cells {
				if o[0] == c[0] {
					span++
					if o[1] < c[1] {
						firstRow = false
					}
				}
				if o[1] == c[1] {
					colSpan++
					if o[0] < c[0] {
						firstCol = false
					}
				}
			}
			if firstRow {
				bc.Rows++
				if span > bc.MaxRowSpan {
					bc.MaxRowSpan = span
				}
			}
			if firstCol {
				bc.Cols++
				if colSpan > bc.MaxColSpan {
					bc.MaxColSpan = colSpan
				}
			}
		}
		// The classification rules, restated.
		switch {
		case bc.Unique <= 1:
			bc.Class = ClassSingleCell
		case bc.MaxRowSpan > 1 && bc.MaxColSpan <= 1:
			bc.Class = ClassRow
		case bc.MaxColSpan > 1 && bc.MaxRowSpan <= 1:
			bc.Class = ClassColumn
		case bc.MaxRowSpan > 1 && bc.MaxColSpan > 1 && bc.Unique >= 6:
			bc.Class = ClassMultiBit
		default:
			bc.Class = ClassScattered
		}
		a.ClassCounts[classIdx[bc.Class]]++
		a.UniqueCells += bc.Unique
		a.Banks = append(a.Banks, bc)
	}

	var leadSum, leadN int64
	for m := 0; m < log.Modules; m++ {
		r := ModuleRisk{Module: m, FirstCEAtNs: -1, UEAtNs: -1}
		var early []Event
		for _, ev := range log.Events {
			if int(ev.Module) != m {
				continue
			}
			if r.FirstCEAtNs < 0 || ev.At < r.FirstCEAtNs {
				r.FirstCEAtNs = ev.At
			}
			if ev.At <= earlyNs {
				early = append(early, ev)
			}
		}
		r.EarlyCEs = len(early)
		var cells []cell
		for _, ev := range early {
			c := cell{rank: ev.Rank, bank: ev.Bank, row: ev.Row, col: ev.Col}
			dup := false
			for _, o := range cells {
				if o == c {
					dup = true
					break
				}
			}
			if !dup {
				cells = append(cells, c)
			}
		}
		r.EarlyUnique = len(cells)
		r.EarlyRepeats = r.EarlyCEs - r.EarlyUnique
		for _, c := range cells {
			span, colSpan := 0, 0
			for _, o := range cells {
				if o.rank == c.rank && o.bank == c.bank && o.row == c.row {
					span++
				}
				if o.rank == c.rank && o.bank == c.bank && o.col == c.col {
					colSpan++
				}
			}
			if span > r.EarlyMaxRowSpan {
				r.EarlyMaxRowSpan = span
			}
			if colSpan > r.EarlyMaxColSpan {
				r.EarlyMaxColSpan = colSpan
			}
		}
		r.Score = RiskScore(r, earlyNs)
		r.Predicted = r.Score >= 0.5
		if m < len(log.Info) {
			r.UEAtNs = log.Info[m].UEAtNs
		}
		r.FailedEarly = r.UEAtNs >= 0 && r.UEAtNs <= earlyNs
		if !r.FailedEarly {
			ue := r.UEAtNs > earlyNs
			switch {
			case r.Predicted && ue:
				a.Matrix.TP++
				leadSum += r.UEAtNs - r.FirstCEAtNs
				leadN++
			case r.Predicted:
				a.Matrix.FP++
			case ue:
				a.Matrix.FN++
			default:
				a.Matrix.TN++
			}
		}
		a.Risk = append(a.Risk, r)
	}
	a.MeanLeadNs = -1
	if leadN > 0 {
		a.MeanLeadNs = leadSum / leadN
	}
	return a
}

// diffAnalytics reports the first field where two analyses disagree.
func diffAnalytics(t *testing.T, got, want *Analytics) {
	t.Helper()
	if got.Events != want.Events || got.UniqueCells != want.UniqueCells || got.MaxRepeat != want.MaxRepeat {
		t.Errorf("headline: got (%d, %d, %d), oracle (%d, %d, %d)",
			got.Events, got.UniqueCells, got.MaxRepeat, want.Events, want.UniqueCells, want.MaxRepeat)
	}
	if got.ClassCounts != want.ClassCounts {
		t.Errorf("class counts: got %v, oracle %v", got.ClassCounts, want.ClassCounts)
	}
	if len(got.Banks) != len(want.Banks) {
		t.Fatalf("%d bank clusters, oracle %d", len(got.Banks), len(want.Banks))
	}
	for i := range got.Banks {
		if got.Banks[i] != want.Banks[i] {
			t.Errorf("bank %d: got %+v, oracle %+v", i, got.Banks[i], want.Banks[i])
		}
	}
	if len(got.Risk) != len(want.Risk) {
		t.Fatalf("%d risk entries, oracle %d", len(got.Risk), len(want.Risk))
	}
	for i := range got.Risk {
		if got.Risk[i] != want.Risk[i] {
			t.Errorf("module %d risk: got %+v, oracle %+v", i, got.Risk[i], want.Risk[i])
		}
	}
	if got.EarlyEpochs != want.EarlyEpochs || got.Matrix != want.Matrix || got.MeanLeadNs != want.MeanLeadNs {
		t.Errorf("scoring: got (%d, %+v, %d), oracle (%d, %+v, %d)",
			got.EarlyEpochs, got.Matrix, got.MeanLeadNs, want.EarlyEpochs, want.Matrix, want.MeanLeadNs)
	}
}

// TestAnalyzeMatchesOracle is the differential test: real fleet runs
// across 3 seeds × 2 geometry-class mixes, analyzed both ways.
func TestAnalyzeMatchesOracle(t *testing.T) {
	classSets := map[string][]Class{
		"default": DefaultClasses(),
		"dense-2R": {
			{Name: "8Gb-x8", Geom: dram.Geometry{
				Ranks: 1, ChipsPerRank: 8, BanksPerChip: 8,
				RowsPerBank: 4096, ColsPerRow: 256, RedundantCols: 8,
			}},
			{Name: "4Gb-2R", Geom: dram.Geometry{
				Ranks: 2, ChipsPerRank: 8, BanksPerChip: 8,
				RowsPerBank: 1024, ColsPerRow: 256, RedundantCols: 8,
			}},
		},
	}
	for name, classes := range classSets {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				log, err := run(context.Background(), Config{Modules: 40, Seed: seed, Scale: 0.05}, classes)
				if err != nil {
					t.Fatal(err)
				}
				if len(log.Events) == 0 {
					t.Fatal("run produced no events; differential test is vacuous")
				}
				diffAnalytics(t, Analyze(log), oracleAnalyze(log))
			})
		}
	}
}

// TestAnalyzeSyntheticLog exercises every confusion-matrix cell and the
// early-window boundaries on a hand-built log, checking Analyze against
// both the oracle and directly computed expectations.
func TestAnalyzeSyntheticLog(t *testing.T) {
	const ns = int64(1000) // short epochs for readability
	log := &Log{Modules: 6, Epochs: 8, EpochNs: ns}
	// Early window: 8/4 = 2 epochs, so earlyNs = 2000.
	add := func(m uint32, at int64, rank, bank uint8, row, col uint32) {
		log.Events = append(log.Events, Event{Module: m, At: at, Rank: rank, Bank: bank, Row: row, Col: col})
	}
	// Module 0: silent. -> TN
	// Module 1: noisy with row+column clusters and repeats, then a UE
	// after the early window. -> TP
	for i := uint32(0); i < 10; i++ {
		add(1, ns, 0, 0, 5, i)
		add(1, ns, 0, 1, i, 50)
	}
	for i := uint32(0); i < 10; i++ {
		add(1, 2*ns, 0, 0, 5, i) // repeats of the row cluster
	}
	// Module 2: the same early pattern, but survives. -> FP
	for i := uint32(0); i < 10; i++ {
		add(2, ns, 0, 0, 5, i)
		add(2, ns, 0, 1, i, 50)
	}
	for i := uint32(0); i < 10; i++ {
		add(2, 2*ns, 0, 0, 5, i)
	}
	// Module 3: two quiet singles, then a UE. -> FN
	add(3, ns, 0, 2, 9, 9)
	add(3, 2*ns, 1, 0, 3, 100)
	// Module 4: CEs only after the early window. -> TN (score 0)
	add(4, 3*ns, 0, 0, 1, 2)
	add(4, 5*ns, 0, 0, 1, 2)
	// Module 5: UE at the early-window boundary: observation, not
	// prediction — excluded from the matrix.
	add(5, ns, 0, 0, 7, 7)
	add(5, 2*ns, 0, 0, 7, 8)
	log.Info = []ModuleInfo{
		{Module: 0, UEAtNs: -1},
		{Module: 1, UEAtNs: 5 * ns},
		{Module: 2, UEAtNs: -1},
		{Module: 3, UEAtNs: 6 * ns},
		{Module: 4, UEAtNs: -1},
		{Module: 5, UEAtNs: 2 * ns},
	}
	slices.SortFunc(log.Events, compareEvents)

	a := Analyze(log)
	diffAnalytics(t, a, oracleAnalyze(log))

	if want := (Confusion{TP: 1, FP: 1, FN: 1, TN: 2}); a.Matrix != want {
		t.Errorf("matrix = %+v, want %+v", a.Matrix, want)
	}
	if !a.Risk[5].FailedEarly {
		t.Error("UE at the early-window boundary not marked FailedEarly")
	}
	if a.MeanLeadNs != 4*ns {
		t.Errorf("MeanLeadNs = %d, want %d", a.MeanLeadNs, 4*ns)
	}
	if a.EarlyEpochs != 2 {
		t.Errorf("EarlyEpochs = %d, want 2", a.EarlyEpochs)
	}
	// Module 1's bank 0 is a row cluster; bank 1 a column cluster.
	for _, bc := range a.Banks {
		if bc.Key.Module == 1 && bc.Key.Bank == 0 && bc.Class != ClassRow {
			t.Errorf("module 1 bank 0 classified %q, want %q", bc.Class, ClassRow)
		}
		if bc.Key.Module == 1 && bc.Key.Bank == 1 && bc.Class != ClassColumn {
			t.Errorf("module 1 bank 1 classified %q, want %q", bc.Class, ClassColumn)
		}
	}
	if !a.Risk[1].Predicted || a.Risk[2].Score != a.Risk[1].Score {
		t.Errorf("noisy twins scored %v/%v, want equal and predicted",
			a.Risk[1].Score, a.Risk[2].Score)
	}
	if a.Risk[4].Score != 0 || a.Risk[4].FirstCEAtNs != 3*ns {
		t.Errorf("late-onset module risk = %+v, want score 0 with first CE at %d", a.Risk[4], 3*ns)
	}
}

// TestClassifyTable pins the AMD-style classification rules directly.
func TestClassifyTable(t *testing.T) {
	cases := []struct {
		unique, rowSpan, colSpan int
		want                     string
	}{
		{0, 0, 0, ClassSingleCell},
		{1, 1, 1, ClassSingleCell},
		{3, 3, 1, ClassRow},
		{3, 1, 3, ClassColumn},
		{4, 2, 2, ClassScattered},
		{5, 2, 3, ClassScattered},
		{6, 2, 2, ClassMultiBit},
		{12, 4, 3, ClassMultiBit},
	}
	for _, tc := range cases {
		if got := classify(tc.unique, tc.rowSpan, tc.colSpan); got != tc.want {
			t.Errorf("classify(%d, %d, %d) = %q, want %q", tc.unique, tc.rowSpan, tc.colSpan, got, tc.want)
		}
	}
}

// TestConfusionRates checks the NaN contracts of the derived rates.
func TestConfusionRates(t *testing.T) {
	c := Confusion{TP: 3, FP: 1, FN: 2, TN: 10}
	if p := c.Precision(); p != 0.75 {
		t.Errorf("precision = %v", p)
	}
	if r := c.Recall(); r != 0.6 {
		t.Errorf("recall = %v", r)
	}
	empty := Confusion{TN: 5}
	if p := empty.Precision(); p == p { // NaN != NaN
		t.Errorf("precision with no positive predictions = %v, want NaN", p)
	}
	if r := empty.Recall(); r == r {
		t.Errorf("recall with no positive labels = %v, want NaN", r)
	}
}
