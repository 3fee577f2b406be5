package fleet

import (
	"math"
	"sort"
)

// Analytics over the CE log: the three field-study questions the fleet
// layer exists to answer.
//
//   - WHAT failed: per-(module, rank, bank) row/column clustering in
//     the AMD field-study style (SNIPPETS.md Snippet 1) — two errors
//     sharing a row make a row fault, sharing a column a column fault,
//     both a multi-cluster; more than five distinct cells in a
//     two-dimensional cluster is a genuine multi-bit bank fault rather
//     than coincident single-bit faults.
//   - HOW OFTEN: unique-failure deduplication — field logs re-report
//     the same stuck cell every scrub, so raw CE counts overstate the
//     distinct fault population.
//   - WHAT NEXT: time-to-UE risk scoring from early-CE features
//     ("First CE Matters"): the structure of the FIRST CEs — onset
//     time, volume, repetition, row/column clustering — carries the
//     signal for predicting uncorrectable failures, and the fleet's
//     recorded UE ground truth scores the prediction.
//
// Everything here is a pure function of the log (events + ground
// truth); analytics_test.go holds it against a brute-force oracle.

// BankKey addresses one bank of one rank of one module.
type BankKey struct {
	Module uint32
	Rank   uint8
	Bank   uint8
}

// less orders bank keys lexicographically.
func (k BankKey) less(o BankKey) bool {
	switch {
	case k.Module != o.Module:
		return k.Module < o.Module
	case k.Rank != o.Rank:
		return k.Rank < o.Rank
	default:
		return k.Bank < o.Bank
	}
}

// Bank fault classes, from most to least localized.
const (
	ClassSingleCell = "single-cell" // one distinct failing cell
	ClassRow        = "row"         // ≥2 cells share a row, no column cluster
	ClassColumn     = "column"      // ≥2 cells share a column, no row cluster
	ClassScattered  = "scattered"   // isolated cells, or a 2-D cluster of ≤5
	ClassMultiBit   = "multi-bit"   // row and column clusters, >5 distinct cells
)

// BankCluster summarizes the failures of one bank.
type BankCluster struct {
	Key BankKey
	// Events is the raw CE count; Unique the distinct (row, col) count.
	Events, Unique int
	// Rows and Cols count distinct failing rows and columns.
	Rows, Cols int
	// MaxRowSpan is the largest distinct-column count within one row;
	// MaxColSpan the largest distinct-row count within one column.
	MaxRowSpan, MaxColSpan int
	// Class is the AMD-style fault classification.
	Class string
}

// classify derives the fault class from the cluster shape.
func classify(unique, maxRowSpan, maxColSpan int) string {
	switch {
	case unique <= 1:
		return ClassSingleCell
	case maxRowSpan >= 2 && maxColSpan < 2:
		return ClassRow
	case maxColSpan >= 2 && maxRowSpan < 2:
		return ClassColumn
	case maxRowSpan >= 2 && maxColSpan >= 2 && unique > 5:
		return ClassMultiBit
	default:
		return ClassScattered
	}
}

// ModuleRisk is one module's early-CE feature vector, risk score, and
// outcome.
type ModuleRisk struct {
	Module int
	// FirstCEAtNs is the time of the module's first CE, or -1.
	FirstCEAtNs int64
	// EarlyCEs counts CEs inside the early window; EarlyUnique the
	// distinct cells among them.
	EarlyCEs, EarlyUnique int
	// EarlyRepeats counts early CEs that re-reported an already-seen
	// cell — stuck-at behaviour, the strongest single predictor.
	EarlyRepeats int
	// EarlyMaxRowSpan and EarlyMaxColSpan are the clustering features
	// over the early window only.
	EarlyMaxRowSpan, EarlyMaxColSpan int
	// Score is the deterministic risk score in (0,1); Predicted is
	// Score >= 0.5.
	Score     float64
	Predicted bool
	// UEAtNs mirrors the ground truth (-1 when the module survived).
	UEAtNs int64
	// FailedEarly marks modules whose UE fell inside the early window
	// itself: they are observation, not prediction, and are excluded
	// from the confusion matrix.
	FailedEarly bool
}

// Confusion is the predictor's confusion matrix over the modules that
// survived the early window.
type Confusion struct {
	TP, FP, FN, TN int
}

// Precision returns TP/(TP+FP), or NaN with no positive predictions.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return math.NaN()
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), or NaN with no positive labels.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return math.NaN()
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// Analytics is the full analysis of one fleet log.
type Analytics struct {
	// Events and UniqueCells give the fleet-wide dedup headline: raw
	// CE count versus distinct (module, rank, bank, row, col) cells.
	Events, UniqueCells int
	// MaxRepeat is the largest CE count any single cell produced.
	MaxRepeat int
	// Banks holds one cluster per bank that reported at least one CE,
	// sorted by key.
	Banks []BankCluster
	// ClassCounts counts banks per fault class, in the fixed class
	// order (single-cell, row, column, scattered, multi-bit).
	ClassCounts [5]int
	// Risk holds one entry per module (module order), CEs or not.
	Risk []ModuleRisk
	// EarlyEpochs is the early-window length the features were drawn
	// from (the first quarter of the observation window, minimum 1).
	EarlyEpochs int
	// Matrix scores Predicted against the UE ground truth.
	Matrix Confusion
	// MeanLeadNs is the mean (UE time - first CE time) over true
	// positives, or -1 with none — the repair window the prediction
	// buys.
	MeanLeadNs int64
}

// ClassNames lists the fault classes in ClassCounts order.
func ClassNames() [5]string {
	return [5]string{ClassSingleCell, ClassRow, ClassColumn, ClassScattered, ClassMultiBit}
}

// EarlyWindow returns the early-window length for an observation of n
// epochs: the first quarter, minimum one epoch.
func EarlyWindow(epochs int) int {
	w := epochs / 4
	if w < 1 {
		w = 1
	}
	return w
}

// cell identifies one distinct failing cell of a module.
type cell struct {
	rank, bank uint8
	row, col   uint32
}

// line is one row or one column of one bank; index is the row or the
// column number.
type line struct {
	rank, bank uint8
	index      uint32
}

// cluster folds CEs into the shape both the bank clusters and the
// early-CE features read: how many CEs, how many re-reported a cell,
// each cell's report count, and each row's and column's distinct-cell
// count with their maxima (the row and column spans).
type cluster struct {
	events, repeats int
	cells           map[cell]int
	rows, cols      map[line]int
	maxRow, maxCol  int
}

func newCluster() *cluster {
	return &cluster{cells: map[cell]int{}, rows: map[line]int{}, cols: map[line]int{}}
}

// add folds one CE and returns how often its cell has now reported.
// Only a new distinct cell counts toward its row's and column's spans.
func (c *cluster) add(ev Event) int {
	c.events++
	k := cell{rank: ev.Rank, bank: ev.Bank, row: ev.Row, col: ev.Col}
	c.cells[k]++
	n := c.cells[k]
	if n > 1 {
		c.repeats++
		return n
	}
	r, col := line{ev.Rank, ev.Bank, ev.Row}, line{ev.Rank, ev.Bank, ev.Col}
	c.rows[r]++
	c.cols[col]++
	c.maxRow = max(c.maxRow, c.rows[r])
	c.maxCol = max(c.maxCol, c.cols[col])
	return n
}

// Analyze computes the full analytics over a log. It requires the
// log's Info ground truth (logs decoded from a file carry none; re-run
// the fleet to score predictions).
func Analyze(log *Log) *Analytics {
	a := &Analytics{
		Events:      len(log.Events),
		EarlyEpochs: EarlyWindow(log.Epochs),
	}
	earlyNs := int64(a.EarlyEpochs) * log.EpochNs

	// One pass folds every CE into its bank's cluster and, inside the
	// early window, into its module's early cluster.
	banks := map[BankKey]*cluster{}
	early := make([]*cluster, log.Modules)
	risk := make([]ModuleRisk, log.Modules)
	for m := range risk {
		risk[m] = ModuleRisk{Module: m, FirstCEAtNs: -1, UEAtNs: -1}
	}
	for _, ev := range log.Events {
		key := BankKey{Module: ev.Module, Rank: ev.Rank, Bank: ev.Bank}
		c := banks[key]
		if c == nil {
			c = newCluster()
			banks[key] = c
		}
		a.MaxRepeat = max(a.MaxRepeat, c.add(ev))
		if int(ev.Module) >= len(risk) {
			continue
		}
		if r := &risk[ev.Module]; r.FirstCEAtNs < 0 {
			r.FirstCEAtNs = ev.At
		}
		if ev.At <= earlyNs {
			if early[ev.Module] == nil {
				early[ev.Module] = newCluster()
			}
			early[ev.Module].add(ev)
		}
	}

	// Flatten the bank clusters in key order.
	keys := make([]BankKey, 0, len(banks))
	for key := range banks {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	classIdx := map[string]int{}
	for i, n := range ClassNames() {
		classIdx[n] = i
	}
	for _, key := range keys {
		c := banks[key]
		bc := BankCluster{
			Key: key, Events: c.events, Unique: len(c.cells),
			Rows: len(c.rows), Cols: len(c.cols),
			MaxRowSpan: c.maxRow, MaxColSpan: c.maxCol,
		}
		bc.Class = classify(bc.Unique, bc.MaxRowSpan, bc.MaxColSpan)
		a.ClassCounts[classIdx[bc.Class]]++
		a.UniqueCells += bc.Unique
		a.Banks = append(a.Banks, bc)
	}

	// Score every module and fill the confusion matrix from the
	// ground truth.
	var leadSum, leadN int64
	for m := range risk {
		r := &risk[m]
		if m < len(log.Info) {
			r.UEAtNs = log.Info[m].UEAtNs
		}
		if c := early[m]; c != nil {
			r.EarlyCEs, r.EarlyUnique, r.EarlyRepeats = c.events, len(c.cells), c.repeats
			r.EarlyMaxRowSpan, r.EarlyMaxColSpan = c.maxRow, c.maxCol
		}
		r.Score = RiskScore(*r, earlyNs)
		r.Predicted = r.Score >= 0.5
		r.FailedEarly = r.UEAtNs >= 0 && r.UEAtNs <= earlyNs
		if r.FailedEarly {
			continue // already failed: nothing left to predict
		}
		ue := r.UEAtNs > earlyNs
		switch {
		case r.Predicted && ue:
			a.Matrix.TP++
			leadSum += r.UEAtNs - r.FirstCEAtNs
			leadN++
		case r.Predicted && !ue:
			a.Matrix.FP++
		case !r.Predicted && ue:
			a.Matrix.FN++
		default:
			a.Matrix.TN++
		}
	}
	a.MeanLeadNs = -1
	if leadN > 0 {
		a.MeanLeadNs = leadSum / leadN
	}
	a.Risk = risk
	return a
}

// RiskScore maps a module's early-CE features to a UE risk in (0,1).
// The weights are fixed, not trained: each term encodes one "First CE
// Matters" finding — early CE volume is the backbone (a large early
// error population means a large weak-cell population, which is what a
// double-flip UE is a coincidence draw from), with repetition (stuck
// cells), row/column clustering, and early onset as secondary boosts.
// The decision threshold (score 0.5 at s = 3.0, i.e. roughly a
// thousand-CE early window or a few dozen CEs with clustered
// structure) flags only the noisy tail of the fleet, matching the
// field reality that UEs are rare and predictors trade precision for
// recall. The score is a pure function of the feature vector, so
// scoring is deterministic and diffable like every other report
// quantity.
func RiskScore(r ModuleRisk, earlyNs int64) float64 {
	if r.EarlyCEs == 0 {
		return 0
	}
	s := math.Log1p(float64(r.EarlyCEs)) / math.Ln10 // volume (decades)
	if r.EarlyRepeats > 0 {
		s += 0.5 // a cell re-reported: stuck-at behaviour
	}
	if r.EarlyMaxRowSpan >= 2 {
		s += 0.8 // row cluster forming (a step toward a same-word pair)
	}
	if r.EarlyMaxColSpan >= 2 {
		s += 0.3 // column cluster forming
	}
	if earlyNs > 0 && r.FirstCEAtNs >= 0 {
		s += 0.3 * (1 - float64(r.FirstCEAtNs)/float64(earlyNs)) // early onset
	}
	return 1 / (1 + math.Exp(-2*(s-3.0)))
}
