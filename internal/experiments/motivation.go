package experiments

import (
	"context"
	"memcon/internal/faults"
	"memcon/internal/report"
)

// runMotivation quantifies why system-level pattern testing under a
// linear-mapping assumption cannot find every data-dependent failure:
// address scrambling and column remapping put physical neighbours at
// unrelated system addresses. It runs the naive system-level neighbour
// test against the silicon ground truth — the rows that can fail with
// some content at the test idle time — and counts the truly weak rows
// the naive test never flags: the failures that would corrupt data in
// the field.
func runMotivation(ctx context.Context, req Request, rt Runtime) (*report.Report, error) {
	geom := charGeometry(req.Scale * 0.5)
	geom.BanksPerChip = 2
	params := faults.DefaultParams()
	params.WeakCellFraction = 2e-3 // denser population for stable statistics
	model, err := chipModel(geom, uint64(req.Seed), params, req.Mapping)
	if err != nil {
		return nil, err
	}
	tester, err := chipTester(model)
	if err != nil {
		return nil, err
	}
	idle := faults.CharacterizationIdle
	naive := tester.NaiveNeighborTest(idle)
	truth := tester.GroundTruthWeakRows(idle)

	missed := 0
	for row := range truth {
		if !naive[row] {
			missed++
		}
	}
	missRate := 0.0
	if len(truth) > 0 {
		missRate = float64(missed) / float64(len(truth))
	}

	rep := report.New()
	rep.Textf("Motivation — system-level neighbour testing vs silicon ground truth\n\n")
	t := report.NewTable("rows",
		report.CStr("quantity", ""),
		report.CInt("rows", "", "rows"))
	t.Add(report.S("truly weak (oracle, any content)"), report.I(int64(len(truth))))
	t.Add(report.S("flagged by linear-mapping neighbour test"), report.I(int64(len(naive))))
	t.Add(report.S("MISSED by the naive test"), report.I(int64(missed)))
	rep.AddTable(t)
	rep.Textf("\nmiss rate: %s — address scrambling and column remapping put physical\n", pct(missRate))
	rep.Textf("neighbours at unrelated system addresses, so pattern tests exercise the\nwrong aggressors; this is why MEMCON tests the actual content instead\n")
	st := report.NewTable("summary", report.CFloat("miss_rate", "", "fraction"))
	st.Add(report.Fv(missRate))
	rep.AddDataTable(st)
	return rep, nil
}
