package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"memcon/internal/dram"
	"memcon/internal/faults"
	"memcon/internal/report"
)

// runVRT simulates 12 hours with a VRT-active weak-cell population.
// Every hour, all content is rewritten: MEMCON re-tests rows with the
// new content (its normal online behaviour), while the one-shot profile
// from hour 0 never updates. Halfway through every hour, the audit
// counts rows that currently fail at LO-REF and asks which mechanism
// knew about them: a one-shot profile escape is a failing row missing
// from the profile, a MEMCON escape a failing row whose state changed
// since MEMCON's last test of that content (the bounded exposure of
// online testing).
func runVRT(ctx context.Context, req Request, rt Runtime) (*report.Report, error) {
	geom := charGeometry(req.Scale * 0.5)
	geom.BanksPerChip = 1
	params := faults.ParamsForRefresh(dram.RefreshWindowDefault)
	params.WeakCellFraction = 5e-3
	base, err := chipModel(geom, uint64(req.Seed), params, req.Mapping)
	if err != nil {
		return nil, err
	}
	mod, err := dram.NewModule(geom)
	if err != nil {
		return nil, err
	}
	vparams := faults.VRTParams{ToggleRate: 2, DegradeFactor: 0.3, AffectedFraction: 0.5}
	vrt := faults.NewVRTModel(base, vparams, req.Seed)

	const hour = 3600 * dram.Second
	loRef := dram.RefreshWindowDefault
	rng := rand.New(rand.NewSource(req.Seed))
	content := dram.NewRow(geom.ColsPerRow)

	writeAll := func(at dram.Nanoseconds) error {
		for r := 0; r < geom.RowsPerBank; r++ {
			content.Randomize(rng)
			if err := mod.WriteRow(dram.RowAddress{Bank: 0, Row: r}, content, at); err != nil {
				return err
			}
		}
		return nil
	}
	failingNow := func() map[int]bool {
		out := make(map[int]bool)
		for r := 0; r < geom.RowsPerBank; r++ {
			if len(vrt.FailingCellsVRT(mod, dram.RowAddress{Bank: 0, Row: r}, loRef)) > 0 {
				out[r] = true
			}
		}
		return out
	}

	// Hour 0: content written; the one-shot profile AND MEMCON's tests
	// both see the hour-0 state.
	if err := writeAll(0); err != nil {
		return nil, err
	}
	staticProfile := failingNow()
	memconKnown := failingNow()

	rep := report.New()
	rep.Textf("Extension — variable retention time: online testing vs one-shot profile\n\n")
	t := report.NewTable("checkpoints",
		report.CFloat("hour", "", "h"),
		report.CInt("failing_rows", "failing rows", "rows"),
		report.CInt("raidr_escapes", "one-shot profile escapes", "rows"),
		report.CInt("memcon_escapes", "MEMCON escapes", "rows"))
	var totalRAIDR, totalMemcon int
	for h := 0; h < 12; h++ {
		// Mid-interval audit: VRT advances half an hour.
		vrt.Advance(dram.Nanoseconds(h)*hour + hour/2)
		failing := failingNow()
		var raidrEscapes, memconEscapes int
		for r := range failing {
			if !staticProfile[r] {
				raidrEscapes++
			}
			if !memconKnown[r] {
				memconEscapes++
			}
		}
		at := float64(h) + 0.5
		t.Add(report.F(at, fmt.Sprintf("%.1f", at)),
			report.I(int64(len(failing))),
			report.I(int64(raidrEscapes)),
			report.I(int64(memconEscapes)))
		totalRAIDR += raidrEscapes
		totalMemcon += memconEscapes

		// End of hour: content rewritten, MEMCON re-tests with the new
		// content and the CURRENT retention state.
		vrt.Advance(dram.Nanoseconds(h+1) * hour)
		if err := writeAll(dram.Nanoseconds(h+1) * hour); err != nil {
			return nil, err
		}
		memconKnown = failingNow()
	}
	rep.AddTable(t)
	rep.Textf("\ntotals over 12 h: one-shot %d escapes, MEMCON %d\n", totalRAIDR, totalMemcon)
	rep.Textf("cells toggle retention states over time (VRT); a boot-time profile decays\nwhile MEMCON's per-content-change testing bounds the exposure window —\nthe AVATAR observation, reproduced with content-based testing\n")
	st := report.NewTable("summary",
		report.CInt("total_raidr", "", "rows"),
		report.CInt("total_memcon", "", "rows"))
	st.Add(report.I(int64(totalRAIDR)), report.I(int64(totalMemcon)))
	rep.AddDataTable(st)
	return rep, nil
}
