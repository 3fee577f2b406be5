package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"memcon/internal/dram"
	"memcon/internal/faults"
	"memcon/internal/report"
)

func init() {
	registry["vrt"] = entry{RunVRT, "Extension: variable retention time — online testing vs one-shot profiling", false}
}

// VRTCheckpoint is one mid-interval audit point.
type VRTCheckpoint struct {
	Hour float64
	// FailingRows is the number of rows failing at LO-REF under the
	// current content and current VRT state.
	FailingRows int
	// RAIDREscapes are failing rows missing from the one-shot profile.
	RAIDREscapes int
	// MemconEscapes are failing rows whose state changed since
	// MEMCON's last test of that content (the bounded exposure of
	// online testing).
	MemconEscapes int
}

// VRTResult compares mitigation coverage under VRT over simulated time.
type VRTResult struct {
	resultMeta
	Checkpoints []VRTCheckpoint
	// TotalRAIDR / TotalMemcon accumulate escapes over the run.
	TotalRAIDR  int
	TotalMemcon int
}

// RunVRT simulates 12 hours with a VRT-active weak-cell population.
// Every hour, all content is rewritten: MEMCON re-tests rows with the
// new content (its normal online behaviour), while the one-shot profile
// from hour 0 never updates. Halfway through every hour, the audit
// counts rows that currently fail at LO-REF and asks which mechanism
// knew about them.
func RunVRT(ctx context.Context, req Request, rt Runtime) (Result, error) {
	geom := charGeometry(req.Scale * 0.5)
	geom.BanksPerChip = 1
	scr, err := dram.NewMappedScrambler(geom, uint64(req.Seed), nil, req.Mapping)
	if err != nil {
		return nil, err
	}
	params := faults.ParamsForRefresh(dram.RefreshWindowDefault)
	params.WeakCellFraction = 5e-3
	base, err := faults.NewModel(geom, scr, uint64(req.Seed), params)
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

	res := &VRTResult{}
	for h := 0; h < 12; h++ {
		// Mid-interval audit: VRT advances half an hour.
		vrt.Advance(dram.Nanoseconds(h)*hour + hour/2)
		failing := failingNow()
		cp := VRTCheckpoint{Hour: float64(h) + 0.5, FailingRows: len(failing)}
		for r := range failing {
			if !staticProfile[r] {
				cp.RAIDREscapes++
			}
			if !memconKnown[r] {
				cp.MemconEscapes++
			}
		}
		res.Checkpoints = append(res.Checkpoints, cp)
		res.TotalRAIDR += cp.RAIDREscapes
		res.TotalMemcon += cp.MemconEscapes

		// End of hour: content rewritten, MEMCON re-tests with the new
		// content and the CURRENT retention state.
		vrt.Advance(dram.Nanoseconds(h+1) * hour)
		if err := writeAll(dram.Nanoseconds(h+1) * hour); err != nil {
			return nil, err
		}
		memconKnown = failingNow()
	}
	return res, nil
}

// Report builds the VRT-comparison document.
func (r *VRTResult) Report() *report.Report {
	rep := report.New(r.provenance())
	rep.Textf("Extension — variable retention time: online testing vs one-shot profile\n\n")
	t := report.NewTable("checkpoints",
		report.CFloat("hour", "", "h"),
		report.CInt("failing_rows", "failing rows", "rows"),
		report.CInt("raidr_escapes", "one-shot profile escapes", "rows"),
		report.CInt("memcon_escapes", "MEMCON escapes", "rows"))
	for _, cp := range r.Checkpoints {
		t.Add(report.F(cp.Hour, fmt.Sprintf("%.1f", cp.Hour)),
			report.I(int64(cp.FailingRows)),
			report.I(int64(cp.RAIDREscapes)),
			report.I(int64(cp.MemconEscapes)))
	}
	rep.AddTable(t)
	rep.Textf("\ntotals over 12 h: one-shot %d escapes, MEMCON %d\n", r.TotalRAIDR, r.TotalMemcon)
	rep.Textf("cells toggle retention states over time (VRT); a boot-time profile decays\nwhile MEMCON's per-content-change testing bounds the exposure window —\nthe AVATAR observation, reproduced with content-based testing\n")
	st := report.NewTable("summary",
		report.CInt("total_raidr", "", "rows"),
		report.CInt("total_memcon", "", "rows"))
	st.Add(report.I(int64(r.TotalRAIDR)), report.I(int64(r.TotalMemcon)))
	rep.AddDataTable(st)
	return rep
}
