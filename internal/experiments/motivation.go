package experiments

import (
	"context"
	"memcon/internal/faults"
	"memcon/internal/report"
)

func init() {
	registry["motiv"] = entry{RunMotivation, "Motivation (paper sec. 2): naive system-level neighbour testing misses failures", false}
}

// MotivationResult quantifies why system-level pattern testing under a
// linear-mapping assumption cannot find every data-dependent failure:
// address scrambling and column remapping put physical neighbours at
// unrelated system addresses.
type MotivationResult struct {
	resultMeta
	// TrueWeakRows is the oracle count (rows that can fail with some
	// content at the test idle time).
	TrueWeakRows int
	// NaiveFlagged is what the linear-mapping neighbour test finds.
	NaiveFlagged int
	// Missed is the number of truly weak rows the naive test never
	// flags — the failures that would corrupt data in the field.
	Missed int
}

// MissRate returns the fraction of truly weak rows missed.
func (r *MotivationResult) MissRate() float64 {
	if r.TrueWeakRows == 0 {
		return 0
	}
	return float64(r.Missed) / float64(r.TrueWeakRows)
}

// RunMotivation runs the naive system-level neighbour test against the
// silicon ground truth.
func RunMotivation(ctx context.Context, req Request, rt Runtime) (Result, error) {
	geom := charGeometry(req.Scale * 0.5)
	geom.BanksPerChip = 2
	params := faults.DefaultParams()
	params.WeakCellFraction = 2e-3 // denser population for stable statistics
	tester, err := newChip(geom, uint64(req.Seed), params, req.Mapping)
	if err != nil {
		return nil, err
	}
	idle := faults.CharacterizationIdle
	naive := tester.NaiveNeighborTest(idle)
	truth := tester.GroundTruthWeakRows(idle)

	res := &MotivationResult{TrueWeakRows: len(truth), NaiveFlagged: len(naive)}
	for row := range truth {
		if !naive[row] {
			res.Missed++
		}
	}
	return res, nil
}

// Report builds the motivation document.
func (r *MotivationResult) Report() *report.Report {
	rep := report.New(r.provenance())
	rep.Textf("Motivation — system-level neighbour testing vs silicon ground truth\n\n")
	t := report.NewTable("rows",
		report.CStr("quantity", ""),
		report.CInt("rows", "", "rows"))
	t.Add(report.S("truly weak (oracle, any content)"), report.I(int64(r.TrueWeakRows)))
	t.Add(report.S("flagged by linear-mapping neighbour test"), report.I(int64(r.NaiveFlagged)))
	t.Add(report.S("MISSED by the naive test"), report.I(int64(r.Missed)))
	rep.AddTable(t)
	rep.Textf("\nmiss rate: %s — address scrambling and column remapping put physical\n", pct(r.MissRate()))
	rep.Textf("neighbours at unrelated system addresses, so pattern tests exercise the\nwrong aggressors; this is why MEMCON tests the actual content instead\n")
	st := report.NewTable("summary", report.CFloat("miss_rate", "", "fraction"))
	st.Add(report.Fv(r.MissRate()))
	rep.AddDataTable(st)
	return rep
}
