package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"memcon/internal/costmodel"
	"memcon/internal/disturb"
	"memcon/internal/dram"
	"memcon/internal/energy"
	"memcon/internal/faults"
	"memcon/internal/memctrl"
	"memcon/internal/obs"
	"memcon/internal/parallel"
	"memcon/internal/refresh"
	"memcon/internal/report"
)

func init() {
	registry["disturb-exposure"] = entry{RunDisturbExposure,
		"Extension: read-disturb exposure census by refresh class", false}
	registry["disturb-mitigation"] = entry{RunDisturbMitigation,
		"Extension: RowHammer mitigation overhead vs blast radius", false}
	// Both build chips through the mapped scrambler, so the address
	// mapping changes which rows neighbour which — and the numbers.
	mappedExperiments["disturb-exposure"] = true
	mappedExperiments["disturb-mitigation"] = true
}

// disturbParams is the victim population both disturb experiments
// simulate: denser than the silicon default so even the 64-row floor
// geometry of heavily scaled runs holds a handful of victims.
func disturbParams() disturb.Params {
	p := disturb.DefaultParams()
	p.VictimRowFraction = 0.06
	return p
}

// trafficStream decorrelates the experiment's traffic generator from the
// controller's internal streams (bank jitter, test-row placement).
const trafficStream = 0x7aff1c0de5717e5

// disturbChip is the shared co-simulation fixture: one single-bank chip
// whose retention model classifies rows into refresh classes and whose
// disturb model holds the hammer-susceptible victims, plus the
// activation-tracking controller the traffic runs against.
type disturbChip struct {
	geom dram.Geometry
	fm   *faults.Model
	dm   *disturb.Model
	mod  *dram.Module
	// hot lists the aggressor system rows the traffic hammers: the
	// physical neighbours of the first few victims.
	hot []int
}

func newDisturbChip(req Request) (*disturbChip, error) {
	geom := charGeometry(req.Scale)
	geom.BanksPerChip = 1
	scr, err := dram.NewMappedScrambler(geom, uint64(req.Seed), nil, req.Mapping)
	if err != nil {
		return nil, err
	}
	fm, err := faults.NewModel(geom, scr, uint64(req.Seed), faults.ParamsForRefresh(dram.RefreshWindowDefault))
	if err != nil {
		return nil, err
	}
	dm, err := disturb.NewModel(fm, uint64(req.Seed), disturbParams())
	if err != nil {
		return nil, err
	}
	mod, err := dram.NewModule(geom)
	if err != nil {
		return nil, err
	}
	// Random program content: disturb flips are content-conditional, so
	// roughly half of each victim's cells store their charged value.
	rng := rand.New(rand.NewSource(req.Seed))
	row := dram.NewRow(geom.ColsPerRow)
	for r := 0; r < geom.RowsPerBank; r++ {
		row.Randomize(rng)
		if err := mod.WriteRow(dram.RowAddress{Bank: 0, Row: r}, row, 0); err != nil {
			return nil, err
		}
	}
	c := &disturbChip{geom: geom, fm: fm, dm: dm, mod: mod}
	victims, _ := dm.VictimRows(0)
	seen := map[int]bool{}
	for _, v := range victims {
		if len(seen) >= 16 {
			break
		}
		for _, a := range dm.Aggressors(dram.RowAddress{Bank: 0, Row: int(v)}) {
			if !seen[a.Row] {
				seen[a.Row] = true
				c.hot = append(c.hot, a.Row)
			}
		}
	}
	return c, nil
}

// controller builds the activation-tracking memory controller the
// traffic runs against, with MEMCON test traffic compressed into the
// simulated horizon (64 tests per quarter of the run) so the probes'
// own hammer contribution is visible at experiment scale.
func (c *disturbChip) controller(req Request, mit refresh.Mitigation) (*memctrl.Controller, error) {
	cfg := memctrl.DefaultConfig()
	cfg.Banks = 1
	cfg.Seed = req.Seed
	cfg.Rows = c.geom.RowsPerBank
	cfg.TestsPerWindow = 64
	cfg.TestWindow = dram.Nanoseconds(req.SimTimeNs) / 4
	if cfg.TestWindow < 1 {
		cfg.TestWindow = 1
	}
	cfg.Mitigation = mit
	return memctrl.New(cfg)
}

// drive replays the deterministic traffic mix: 70% of accesses hammer
// the hot aggressor rows, the rest spread uniformly. The generator's
// RNG is independent of the controller's, so every policy in a sweep
// sees the identical access stream.
func (c *disturbChip) drive(ctrl *memctrl.Controller, req Request) error {
	rng := rand.New(rand.NewSource(req.Seed ^ trafficStream))
	simTime := dram.Nanoseconds(req.SimTimeNs)
	const spacing = dram.Nanoseconds(200)
	for at := dram.Nanoseconds(0); at < simTime; at += spacing {
		var row int
		if len(c.hot) > 0 && rng.Float64() < 0.7 {
			row = c.hot[rng.Intn(len(c.hot))]
		} else {
			row = rng.Intn(c.geom.RowsPerBank)
		}
		if _, err := ctrl.Access(at, 0, row, false); err != nil {
			return err
		}
	}
	return nil
}

// victimHammer sums the current-window activations of the victim's
// aggressor neighbours — the hammer the victim's cells absorbed. The
// simulated horizon is far shorter than one hammer window, so the
// current window holds the whole run's counts. The second return is the
// test-traffic-attributable share.
func (c *disturbChip) victimHammer(ctrl *memctrl.Controller, v int) (total, test int64) {
	for _, a := range c.dm.Aggressors(dram.RowAddress{Bank: 0, Row: v}) {
		n, tn := ctrl.WindowActivations(a.Bank, a.Row)
		total += n
		test += tn
	}
	return total, test
}

// refreshWindow returns the victim row's refresh class under MEMCON:
// rows that cannot fail at the relaxed rate with any content run at
// LO-REF (64 ms), retention-weak rows stay at HI-REF (16 ms). The
// window is how long disturbance accumulates before a refresh restores
// the victim's charge.
func (c *disturbChip) refreshWindow(v int) (string, dram.Nanoseconds) {
	if c.fm.RowCanFail(dram.RowAddress{Bank: 0, Row: v}, dram.RefreshWindowDefault) {
		return "HI-REF", dram.RefreshWindowAggressive
	}
	return "LO-REF", dram.RefreshWindowDefault
}

// extrapolate scales a hammer count measured over the simulated horizon
// to one full refresh window of the victim's class.
func extrapolate(hammer int64, simTime, window dram.Nanoseconds) int64 {
	if simTime <= 0 {
		return 0
	}
	return int64(float64(hammer) * float64(window) / float64(simTime))
}

// DisturbClassCensus is one refresh class's victim exposure.
type DisturbClassCensus struct {
	// Class is "HI-REF" or "LO-REF"; Window its refresh interval.
	Class  string
	Window dram.Nanoseconds
	// VictimRows is the class's hammer-susceptible row count;
	// HammeredRows the subset whose aggressors were activated at all.
	VictimRows   int
	HammeredRows int
	// ExposedRows counts victims whose per-window extrapolated hammer
	// reaches their first-flip threshold; FlippedCells the
	// content-conditional flips those rows suffer under current content.
	ExposedRows  int
	FlippedCells int
	// TestHammer is the test-traffic share of the class's total hammer.
	TestHammer  int64
	TotalHammer int64
	// MaxWindowHammer is the largest extrapolated per-window hammer.
	MaxWindowHammer int64
}

// DisturbExposureResult is the disturb-exposure census: how MEMCON's
// refresh relaxation changes RowHammer exposure. A clean retention test
// moves a row to LO-REF, which quadruples the window over which its
// neighbours' activations accumulate — so the same traffic disturbs
// LO-REF victims at 4x the effective hammer count of HI-REF victims.
type DisturbExposureResult struct {
	resultMeta
	SimTimeNs int64
	Census    []DisturbClassCensus
	// Controller-level activation accounting.
	Activations       int64
	TestActivations   int64
	MaxRowActivations int64
}

// RunDisturbExposure co-simulates retention classification and
// read-disturb accumulation over one traffic mix and reports the victim
// census by refresh class.
func RunDisturbExposure(ctx context.Context, req Request, rt Runtime) (Result, error) {
	chip, err := newDisturbChip(req)
	if err != nil {
		return nil, err
	}
	ctrl, err := chip.controller(req, nil)
	if err != nil {
		return nil, err
	}
	if err := chip.drive(ctrl, req); err != nil {
		return nil, err
	}
	simTime := dram.Nanoseconds(req.SimTimeNs)
	victims, _ := chip.dm.VictimRows(0)

	type victimVerdict struct {
		class    string
		hammered bool
		exposed  bool
		flips    int
		hammer   int64
		test     int64
		windowH  int64
	}
	verdicts, err := parallel.Map(ctx, len(victims), rt.Workers, func(i int) (victimVerdict, error) {
		v := int(victims[i])
		a := dram.RowAddress{Bank: 0, Row: v}
		class, window := chip.refreshWindow(v)
		hammer, test := chip.victimHammer(ctrl, v)
		windowH := extrapolate(hammer, simTime, window)
		w := faults.RowWindow{Hammer: windowH}
		flips := len(chip.dm.AppendFailures(nil, chip.mod, a, w))
		return victimVerdict{
			class:    class,
			hammered: hammer > 0,
			exposed:  chip.dm.RowVulnerable(a, w),
			flips:    flips,
			hammer:   hammer,
			test:     test,
			windowH:  windowH,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	byClass := map[string]*DisturbClassCensus{
		"HI-REF": {Class: "HI-REF", Window: dram.RefreshWindowAggressive},
		"LO-REF": {Class: "LO-REF", Window: dram.RefreshWindowDefault},
	}
	for i, vv := range verdicts {
		c := byClass[vv.class]
		c.VictimRows++
		if vv.hammered {
			c.HammeredRows++
		}
		if vv.exposed {
			c.ExposedRows++
		}
		c.FlippedCells += vv.flips
		c.TotalHammer += vv.hammer
		c.TestHammer += vv.test
		if vv.windowH > c.MaxWindowHammer {
			c.MaxWindowHammer = vv.windowH
		}
		if vv.flips > 0 && rt.Observer != nil {
			rt.Observer.OnEvent(obs.Event{
				Kind: obs.KindDisturbFailure,
				Page: uint32(victims[i]),
				Aux:  int64(vv.flips),
			})
		}
	}
	stats := ctrl.Stats()
	if rt.Observer != nil {
		rt.Observer.OnEvent(obs.Event{Kind: obs.KindRowActivation, Aux: stats.Activations})
		rt.Observer.OnEvent(obs.Event{Kind: obs.KindTestActivation, Aux: stats.TestActivations})
	}
	return &DisturbExposureResult{
		SimTimeNs:         req.SimTimeNs,
		Census:            []DisturbClassCensus{*byClass["HI-REF"], *byClass["LO-REF"]},
		Activations:       stats.Activations,
		TestActivations:   stats.TestActivations,
		MaxRowActivations: stats.MaxRowActivations,
	}, nil
}

// Report builds the exposure census document.
func (r *DisturbExposureResult) Report() *report.Report {
	rep := report.New(r.provenance())
	rep.Textf("Extension — read-disturb exposure by refresh class\n\n")
	t := report.NewTable("census",
		report.CStr("class", "refresh class"),
		report.CFloat("window_ms", "refresh window", "ms"),
		report.CInt("victim_rows", "", "rows"),
		report.CInt("hammered_rows", "", "rows"),
		report.CInt("exposed_rows", "hammer over threshold", "rows"),
		report.CInt("flipped_cells", "content-conditional flips", "cells"),
		report.CInt("max_window_hammer", "max per-window hammer", "acts"))
	for _, c := range r.Census {
		ms := float64(c.Window) / float64(dram.Millisecond)
		t.Add(report.S(c.Class),
			report.F(ms, fmt.Sprintf("%.0f", ms)),
			report.I(int64(c.VictimRows)),
			report.I(int64(c.HammeredRows)),
			report.I(int64(c.ExposedRows)),
			report.I(int64(c.FlippedCells)),
			report.I(c.MaxWindowHammer))
	}
	rep.AddTable(t)
	testShare := 0.0
	if r.Activations > 0 {
		testShare = float64(r.TestActivations) / float64(r.Activations)
	}
	rep.Textf("\nactivations: %d total, %d from MEMCON test traffic (%s)\n",
		r.Activations, r.TestActivations, pct(testShare))
	rep.Textf("max single-row activations in a window: %d\n", r.MaxRowActivations)
	rep.Textf("a clean retention test relaxes a row to LO-REF, quadrupling the window\nover which neighbour activations accumulate — the refresh reduction that\nsaves energy also amplifies RowHammer exposure, and MEMCON's own probes\ncontribute hammer activity the controller must count\n")
	st := report.NewTable("traffic",
		report.CInt("activations", "", "acts"),
		report.CInt("test_activations", "", "acts"),
		report.CInt("max_row_activations", "", "acts"))
	st.Add(report.I(r.Activations), report.I(r.TestActivations), report.I(r.MaxRowActivations))
	rep.AddDataTable(st)
	return rep
}

// DisturbPolicyOutcome is one mitigation policy's measured overhead and
// analytic residual blast radius over the shared traffic mix.
type DisturbPolicyOutcome struct {
	// Policy is the canonical spec ("none" for the unmitigated baseline).
	Policy string
	// MitigationOps counts the extra neighbour refreshes the policy
	// issued; OverheadNs prices them through the cost model and
	// OverheadFrac relates that to the simulated horizon.
	MitigationOps int64
	OverheadNs    int64
	OverheadFrac  float64
	// RefreshMJ is the energy of the extra refreshes.
	RefreshMJ float64
	// ExposedRows is the expected number of victim rows whose effective
	// per-window hammer still reaches threshold under the policy
	// (fractional for probabilistic policies); FlippedCells the expected
	// content-conditional flips in those rows.
	ExposedRows  float64
	FlippedCells float64
}

// DisturbMitigationResult sweeps mitigation policies over one traffic
// mix: measured operation overhead against analytically bounded
// residual blast radius.
type DisturbMitigationResult struct {
	resultMeta
	SimTimeNs int64
	Policies  []DisturbPolicyOutcome
}

// disturbPolicyGrid is the default mitigation sweep; a novel request
// spec is appended rather than replacing the grid so every report
// carries the comparable baselines.
var disturbPolicyGrid = []string{"", "para:0.001", "para:0.01", "prac:1024", "prac:4096"}

// RunDisturbMitigation runs the policy sweep. Every policy sees the
// identical access stream (the traffic RNG is independent of policy
// state); the controller measures the mitigation operations it issues,
// and the residual exposure is evaluated analytically from the measured
// per-victim hammer rates — PARA's escape probability (1-p)^H, PRAC's
// capped inter-mitigation hammer.
func RunDisturbMitigation(ctx context.Context, req Request, rt Runtime) (Result, error) {
	chip, err := newDisturbChip(req)
	if err != nil {
		return nil, err
	}
	specs := append([]string(nil), disturbPolicyGrid...)
	if req.Disturb != "" {
		novel := true
		for _, s := range specs {
			if s == req.Disturb {
				novel = false
				break
			}
		}
		if novel {
			specs = append(specs, req.Disturb)
		}
	}
	simTime := dram.Nanoseconds(req.SimTimeNs)
	victims, _ := chip.dm.VictimRows(0)
	cm := costmodel.DefaultConfig()
	budget := energy.DDR3Budget()

	outcomes, err := parallel.Map(ctx, len(specs), rt.Workers, func(i int) (DisturbPolicyOutcome, error) {
		spec := specs[i]
		mit, err := refresh.ParseMitigation(spec, uint64(req.Seed))
		if err != nil {
			return DisturbPolicyOutcome{}, err
		}
		ctrl, err := chip.controller(req, mit)
		if err != nil {
			return DisturbPolicyOutcome{}, err
		}
		if err := chip.drive(ctrl, req); err != nil {
			return DisturbPolicyOutcome{}, err
		}
		stats := ctrl.Stats()
		out := DisturbPolicyOutcome{Policy: "none", MitigationOps: stats.MitigationOps}
		if mit != nil {
			out.Policy = mit.Name()
		}
		out.OverheadNs = int64(cm.MitigationCost(stats.MitigationOps))
		if simTime > 0 {
			out.OverheadFrac = float64(out.OverheadNs) / float64(simTime)
		}
		br, err := energy.Compute(budget, energy.Tally{RefreshOps: float64(stats.MitigationOps)})
		if err != nil {
			return DisturbPolicyOutcome{}, err
		}
		out.RefreshMJ = br.RefreshMJ

		for _, v := range victims {
			a := dram.RowAddress{Bank: 0, Row: int(v)}
			_, window := chip.refreshWindow(int(v))
			hammer, _ := chip.victimHammer(ctrl, int(v))
			windowH := extrapolate(hammer, simTime, window)
			// surviveProb is how much of the raw hammer's effect the
			// policy lets through: PARA keeps it with probability
			// (1-p)^H, PRAC deterministically caps it.
			surviveProb, effH := 1.0, windowH
			switch m := mit.(type) {
			case *refresh.PARA:
				surviveProb = refresh.PARAEscapeProb(m.P(), windowH)
			case *refresh.PRAC:
				effH = refresh.PRACCappedHammer(m.Threshold(), windowH)
			}
			w := faults.RowWindow{Hammer: effH}
			if chip.dm.RowVulnerable(a, w) {
				out.ExposedRows += surviveProb
				out.FlippedCells += surviveProb * float64(len(chip.dm.AppendFailures(nil, chip.mod, a, w)))
			}
		}
		if rt.Observer != nil {
			rt.Observer.OnEvent(obs.Event{Kind: obs.KindMitigation, Aux: stats.MitigationOps})
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return &DisturbMitigationResult{SimTimeNs: req.SimTimeNs, Policies: outcomes}, nil
}

// Report builds the mitigation-sweep document.
func (r *DisturbMitigationResult) Report() *report.Report {
	rep := report.New(r.provenance())
	rep.Textf("Extension — RowHammer mitigation overhead vs blast radius\n\n")
	t := report.NewTable("mitigation",
		report.CStr("policy", ""),
		report.CInt("mitigation_ops", "extra refreshes", "ops"),
		report.CInt("overhead_ns", "time overhead", "ns"),
		report.CFloat("overhead_pct", "of sim time", "%"),
		report.CFloat("refresh_mj", "energy", "mJ"),
		report.CFloat("exposed_rows", "expected exposed", "rows"),
		report.CFloat("flipped_cells", "expected flips", "cells"))
	for _, p := range r.Policies {
		t.Add(report.S(p.Policy),
			report.I(p.MitigationOps),
			report.I(p.OverheadNs),
			report.F(100*p.OverheadFrac, fmt.Sprintf("%.4f", 100*p.OverheadFrac)),
			report.F(p.RefreshMJ, fmt.Sprintf("%.6f", p.RefreshMJ)),
			report.F(p.ExposedRows, fmt.Sprintf("%.3f", p.ExposedRows)),
			report.F(p.FlippedCells, fmt.Sprintf("%.3f", p.FlippedCells)))
	}
	rep.AddTable(t)
	rep.Textf("\nevery policy replays the identical access stream; operation counts are\nmeasured in the controller, residual exposure is the analytic bound over\nmeasured per-victim hammer rates (PARA escapes with (1-p)^H, PRAC caps\nthe inter-mitigation hammer at 2(n-1)+1)\n")
	return rep
}
