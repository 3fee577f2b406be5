package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"memcon/internal/costmodel"
	"memcon/internal/disturb"
	"memcon/internal/dram"
	"memcon/internal/faults"
	"memcon/internal/memctrl"
	"memcon/internal/obs"
	"memcon/internal/parallel"
	"memcon/internal/refresh"
	"memcon/internal/report"
)

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
	fm, err := chipModel(geom, uint64(req.Seed), faults.ParamsForRefresh(dram.RefreshWindowDefault), req.Mapping)
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
// current window holds the whole run's counts.
func (c *disturbChip) victimHammer(ctrl *memctrl.Controller, v int) int64 {
	var total int64
	for _, a := range c.dm.Aggressors(dram.RowAddress{Bank: 0, Row: v}) {
		n, _ := ctrl.WindowActivations(a.Bank, a.Row)
		total += n
	}
	return total
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

// classCensus is one refresh class's victim exposure.
type classCensus struct {
	// class is "HI-REF" or "LO-REF"; window its refresh interval.
	class  string
	window dram.Nanoseconds
	// victimRows is the class's hammer-susceptible row count;
	// hammeredRows the subset whose aggressors were activated at all.
	victimRows, hammeredRows int
	// exposedRows counts victims whose per-window extrapolated hammer
	// reaches their first-flip threshold; flippedCells the
	// content-conditional flips those rows suffer under current content.
	exposedRows, flippedCells int
	// maxWindowHammer is the largest extrapolated per-window hammer.
	maxWindowHammer int64
}

// runDisturbExposure is the disturb-exposure census: how MEMCON's
// refresh relaxation changes RowHammer exposure. A clean retention test
// moves a row to LO-REF, which quadruples the window over which its
// neighbours' activations accumulate — so the same traffic disturbs
// LO-REF victims at 4x the effective hammer count of HI-REF victims. It
// co-simulates retention classification and read-disturb accumulation
// over one traffic mix and reports the victim census by refresh class
// plus the controller-level activation accounting.
func runDisturbExposure(ctx context.Context, req Request, rt Runtime) (*report.Report, error) {
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
		windowH  int64
	}
	verdicts, err := parallel.Map(ctx, len(victims), rt.Workers, func(i int) (victimVerdict, error) {
		v := int(victims[i])
		a := dram.RowAddress{Bank: 0, Row: v}
		class, window := chip.refreshWindow(v)
		hammer := chip.victimHammer(ctrl, v)
		windowH := extrapolate(hammer, simTime, window)
		w := faults.RowWindow{Hammer: windowH}
		flips := len(chip.dm.AppendFailures(nil, chip.mod, a, w))
		return victimVerdict{
			class:    class,
			hammered: hammer > 0,
			exposed:  chip.dm.RowVulnerable(a, w),
			flips:    flips,
			windowH:  windowH,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	byClass := map[string]*classCensus{
		"HI-REF": {class: "HI-REF", window: dram.RefreshWindowAggressive},
		"LO-REF": {class: "LO-REF", window: dram.RefreshWindowDefault},
	}
	for i, vv := range verdicts {
		c := byClass[vv.class]
		c.victimRows++
		if vv.hammered {
			c.hammeredRows++
		}
		if vv.exposed {
			c.exposedRows++
		}
		c.flippedCells += vv.flips
		if vv.windowH > c.maxWindowHammer {
			c.maxWindowHammer = vv.windowH
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

	rep := report.New()
	rep.Textf("Extension — read-disturb exposure by refresh class\n\n")
	t := report.NewTable("census",
		report.CStr("class", "refresh class"),
		report.CFloat("window_ms", "refresh window", "ms"),
		report.CInt("victim_rows", "", "rows"),
		report.CInt("hammered_rows", "", "rows"),
		report.CInt("exposed_rows", "hammer over threshold", "rows"),
		report.CInt("flipped_cells", "content-conditional flips", "cells"),
		report.CInt("max_window_hammer", "max per-window hammer", "acts"))
	for _, c := range []*classCensus{byClass["HI-REF"], byClass["LO-REF"]} {
		ms := float64(c.window) / float64(dram.Millisecond)
		t.Add(report.S(c.class),
			report.F(ms, fmt.Sprintf("%.0f", ms)),
			report.I(int64(c.victimRows)),
			report.I(int64(c.hammeredRows)),
			report.I(int64(c.exposedRows)),
			report.I(int64(c.flippedCells)),
			report.I(c.maxWindowHammer))
	}
	rep.AddTable(t)
	testShare := 0.0
	if stats.Activations > 0 {
		testShare = float64(stats.TestActivations) / float64(stats.Activations)
	}
	rep.Textf("\nactivations: %d total, %d from MEMCON test traffic (%s)\n",
		stats.Activations, stats.TestActivations, pct(testShare))
	rep.Textf("max single-row activations in a window: %d\n", stats.MaxRowActivations)
	rep.Textf("a clean retention test relaxes a row to LO-REF, quadrupling the window\nover which neighbour activations accumulate — the refresh reduction that\nsaves energy also amplifies RowHammer exposure, and MEMCON's own probes\ncontribute hammer activity the controller must count\n")
	st := report.NewTable("traffic",
		report.CInt("activations", "", "acts"),
		report.CInt("test_activations", "", "acts"),
		report.CInt("max_row_activations", "", "acts"))
	st.Add(report.I(stats.Activations), report.I(stats.TestActivations), report.I(stats.MaxRowActivations))
	rep.AddDataTable(st)
	return rep, nil
}

// disturbPolicyGrid is the default mitigation sweep; a novel request
// spec is appended rather than replacing the grid so every report
// carries the comparable baselines.
var disturbPolicyGrid = []string{"", "para:0.001", "para:0.01", "prac:1024", "prac:4096"}

// runDisturbMitigation sweeps mitigation policies over one traffic mix:
// each policy's measured operation overhead against its analytically
// bounded residual blast radius. Every policy sees the identical access
// stream (the traffic RNG is independent of policy state); the
// controller measures the mitigation operations it issues, and the
// residual exposure is evaluated analytically from the measured
// per-victim hammer rates — PARA's escape probability (1-p)^H, PRAC's
// capped inter-mitigation hammer.
func runDisturbMitigation(ctx context.Context, req Request, rt Runtime) (*report.Report, error) {
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
	budget := costmodel.DDR3Budget()

	rep := report.New()
	rep.Textf("Extension — RowHammer mitigation overhead vs blast radius\n\n")
	t := report.NewTable("mitigation",
		report.CStr("policy", ""),
		report.CInt("mitigation_ops", "extra refreshes", "ops"),
		report.CInt("overhead_ns", "time overhead", "ns"),
		report.CFloat("overhead_pct", "of sim time", "%"),
		report.CFloat("refresh_mj", "energy", "mJ"),
		report.CFloat("exposed_rows", "expected exposed", "rows"),
		report.CFloat("flipped_cells", "expected flips", "cells"))
	// Each policy's unit returns its table row: the canonical spec
	// ("none" for the unmitigated baseline); the extra neighbour
	// refreshes it issued, priced through the cost model and related to
	// the simulated horizon; their energy; and the expected number of
	// victim rows whose effective per-window hammer still reaches
	// threshold under the policy (fractional for probabilistic
	// policies), with the expected content-conditional flips in them.
	rows, err := parallel.Map(ctx, len(specs), rt.Workers, func(i int) ([]report.Cell, error) {
		spec := specs[i]
		mit, err := refresh.ParseMitigation(spec, uint64(req.Seed))
		if err != nil {
			return nil, err
		}
		ctrl, err := chip.controller(req, mit)
		if err != nil {
			return nil, err
		}
		if err := chip.drive(ctrl, req); err != nil {
			return nil, err
		}
		stats := ctrl.Stats()
		policy := "none"
		if mit != nil {
			policy = mit.Name()
		}
		overheadNs := int64(cm.MitigationCost(stats.MitigationOps))
		overheadFrac := 0.0
		if simTime > 0 {
			overheadFrac = float64(overheadNs) / float64(simTime)
		}
		br, err := cm.Energy(budget, costmodel.Tally{RefreshOps: float64(stats.MitigationOps)})
		if err != nil {
			return nil, err
		}

		var exposed, flipped float64
		for _, v := range victims {
			a := dram.RowAddress{Bank: 0, Row: int(v)}
			_, window := chip.refreshWindow(int(v))
			hammer := chip.victimHammer(ctrl, int(v))
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
				exposed += surviveProb
				flipped += surviveProb * float64(len(chip.dm.AppendFailures(nil, chip.mod, a, w)))
			}
		}
		if rt.Observer != nil {
			rt.Observer.OnEvent(obs.Event{Kind: obs.KindMitigation, Aux: stats.MitigationOps})
		}
		return []report.Cell{report.S(policy),
			report.I(stats.MitigationOps),
			report.I(overheadNs),
			report.F(100*overheadFrac, fmt.Sprintf("%.4f", 100*overheadFrac)),
			report.F(br.RefreshMJ, fmt.Sprintf("%.6f", br.RefreshMJ)),
			report.F(exposed, fmt.Sprintf("%.3f", exposed)),
			report.F(flipped, fmt.Sprintf("%.3f", flipped))}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.Add(row...)
	}
	rep.AddTable(t)
	rep.Textf("\nevery policy replays the identical access stream; operation counts are\nmeasured in the controller, residual exposure is the analytic bound over\nmeasured per-victim hammer rates (PARA escapes with (1-p)^H, PRAC caps\nthe inter-mitigation hammer at 2(n-1)+1)\n")
	return rep, nil
}
