package experiments

import (
	"context"
	"fmt"

	"memcon/internal/core"
	"memcon/internal/costmodel"
	"memcon/internal/dram"
	"memcon/internal/report"
	"memcon/internal/trace"
	"memcon/internal/workload"
)

func init() {
	registry["energy"] = entry{RunEnergy, "Extension: DRAM energy by refresh mechanism (the paper claims, we quantify)", nil}
}

// RunEnergy compares refresh mechanisms in DRAM energy, using each
// policy's refresh-operation count and MEMCON's measured testing
// traffic on one representative workload (the averages across
// workloads track the refresh reduction, which Fig. 14 already sweeps).
// Like Fig. 18, the module is modelled as the written footprint plus 9x
// read-only rows. Savings are reported over the CONTROLLABLE energy
// (refresh + testing); background power is shown for context but no
// refresh policy moves it. The report also gives the amortization
// crossovers (MinWriteInterval) in the latency and energy cost domains.
func RunEnergy(ctx context.Context, req Request, rt Runtime) (*report.Report, error) {
	app, err := workload.AppByName("AdobePremiere")
	if err != nil {
		return nil, err
	}
	tr := app.Generate(req.Seed, req.Scale)
	cfg := core.DefaultConfig()
	cfg.Quantum = 1024 * trace.Millisecond
	run, err := core.RunContext(ctx, tr, cfg, core.WithObserver(rt.Observer))
	if err != nil {
		return nil, err
	}
	run = run.WithReadOnlyRows(9*(tr.MaxPage()+1), cfg)

	budget := costmodel.DDR3Budget()
	durNs := dram.Nanoseconds(run.Duration) * dram.Microsecond
	baseOps := run.BaselineOps
	cm := costmodel.DefaultConfig()
	cm.Mode = cfg.Mode

	policies := []struct {
		name  string
		ops   float64
		tests int64
	}{
		{"16ms baseline", baseOps, 0},
		{"32ms", baseOps / 2, 0},
		{"RAIDR", baseOps * (1 - raidrReduction), 0},
		{"MEMCON", run.RefreshOps, run.TestsCompleted},
		{"64ms ideal", run.UpperBoundOps, 0},
	}
	latencyMWI, err := cm.MinWriteInterval()
	if err != nil {
		return nil, err
	}
	energyMWI, err := cm.EnergyMinWriteInterval(budget)
	if err != nil {
		return nil, err
	}
	// One test and one refresh, priced together: the test's energy in
	// refreshes.
	one, err := cm.Energy(budget, costmodel.Tally{RefreshOps: 1, TestRowCycles: int64(cm.Mode.RowCycles())})
	if err != nil {
		return nil, err
	}

	rep := report.New()
	rep.Textf("Extension — DRAM energy by refresh mechanism\n\n")
	t := report.NewTable("rows",
		report.CStr("policy", ""),
		report.CFloat("refresh_mj", "refresh (mJ)", "mJ"),
		report.CFloat("testing_mj", "testing (mJ)", "mJ"),
		report.CFloat("background_mj", "background (mJ)", "mJ"),
		report.CFloat("total_mj", "total (mJ)", "mJ"),
		report.CFloat("savings", "", "fraction"))
	var baseControllable float64
	for i, p := range policies {
		bd, err := cm.Energy(budget, costmodel.Tally{
			RefreshOps:    p.ops,
			TestRowCycles: int64(cm.Mode.RowCycles()) * p.tests,
			Duration:      durNs,
		})
		if err != nil {
			return nil, err
		}
		controllable := bd.RefreshMJ + bd.TestingMJ
		if i == 0 {
			baseControllable = controllable
		}
		saving := 0.0
		if baseControllable > 0 {
			saving = 1 - controllable/baseControllable
		}
		t.Add(report.S(p.name),
			report.F(bd.RefreshMJ, fmt.Sprintf("%.1f", bd.RefreshMJ)),
			report.F(bd.TestingMJ, fmt.Sprintf("%.3f", bd.TestingMJ)),
			report.F(bd.BackgroundMJ, fmt.Sprintf("%.1f", bd.BackgroundMJ)),
			report.F(bd.Total(), fmt.Sprintf("%.1f", bd.Total())),
			report.F(saving, pct(saving)))
	}
	rep.AddTable(t)
	reduction := run.RefreshReduction()
	rep.Textf("\nMEMCON refresh reduction feeding this table: %s\n", pct(reduction))
	rep.Textf("savings are over controllable (refresh+testing) energy; background power is\n")
	rep.Textf("policy-invariant. the paper claims energy benefits without quantifying them;\n")
	rep.Textf("this extension does — a full-row test costs %.1f refresh ops in energy, so the\nenergy-optimal MinWriteInterval is %d ms vs the latency-optimal %d ms\n",
		one.TestingMJ/one.RefreshMJ, energyMWI/dram.Millisecond, latencyMWI/dram.Millisecond)
	st := report.NewTable("summary",
		report.CFloat("memcon_refresh_reduction", "", "fraction"),
		report.CInt("latency_mwi_ms", "", "ms"),
		report.CInt("energy_mwi_ms", "", "ms"))
	st.Add(report.Fv(reduction),
		report.I(int64(latencyMWI/dram.Millisecond)),
		report.I(int64(energyMWI/dram.Millisecond)))
	rep.AddDataTable(st)
	return rep, nil
}
