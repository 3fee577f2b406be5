// Package fleet scales the single-module MEMCON simulation out to the
// deployments that motivate it: N modules with heterogeneous
// geometries, per-module fault populations, and per-module workload
// mixes, observed over months of simulated time through the
// correctable-error (CE) events a patrol scrub would report. The
// output is a typed, canonically ordered CE event log — (module, rank,
// bank, row, col, sim-time) tuples — plus per-module ground truth
// (first uncorrectable error, if any) that the analytics layer scores
// predictions against.
//
// # Determinism
//
// A fleet run is embarrassingly parallel: every module's months are a
// pure function of (base seed, module index) via parallel.Seed, never
// of worker identity or scheduling. Each module is one work unit,
// fanned out over internal/parallel workers with ordered fan-in, so
// the log — and every report derived from it — is byte-identical for
// ANY worker count, including 1. The property test in fleet_test.go
// pins exactly that for workers 1/4/8.
//
// # Simulation model
//
// Each module draws a geometry class (density/rank diversity), a SPEC
// content class (its resident workload), and a fault-population scale
// (module quality varies wildly in the field; most modules are quiet,
// a few are noisy). Months are discretized into scrub epochs: per
// epoch the module's content advances one execution phase, the rows
// sit through a drawn vulnerable idle window, and a read-back commits
// the data-dependent failures — each failing cell is one CE event
// stamped with the epoch's scrub time. A read-back that finds two
// failing cells inside one ECC word is an uncorrectable error (SEC-DED
// cannot repair a double flip); with x8 chips a 64-bit word interleaves
// eight bits from each chip of the rank, so two failures inside one
// 8-column-aligned group of a chip row share a word. The module is
// retired at its first UE and the UE time recorded as the prediction
// target.
package fleet

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"

	"memcon/internal/dram"
	"memcon/internal/faults"
	"memcon/internal/parallel"
	"memcon/internal/softmc"
	"memcon/internal/workload"
)

// EpochNs is the simulated time between patrol scrubs: one week. A
// default 12-epoch run covers roughly three months of field time.
const EpochNs = int64(7*24) * int64(3600) * 1_000_000_000

// DefaultEpochs is the observation length of a run in scrub epochs.
const DefaultEpochs = 12

// Event is one correctable error: a single failing cell reported by a
// scrub read-back. The canonical log order is (Module, At, Rank, Bank,
// Row, Col), lexicographically non-decreasing.
type Event struct {
	Module uint32
	Rank   uint8
	Bank   uint8
	Row    uint32
	Col    uint32
	// At is the simulated time of the scrub that observed the error,
	// in nanoseconds since the fleet observation started.
	At int64
}

// Class is one geometry/population class modules are drawn from —
// the fleet's density and rank diversity.
type Class struct {
	// Name labels the class in reports ("2Gb-x8").
	Name string
	// Geom is the unscaled per-chip geometry of the class. Run scales
	// RowsPerBank by Config.Scale (floor 64) the way the
	// characterization experiments scale theirs.
	Geom dram.Geometry
}

// DefaultClasses returns the stock fleet mix: two single-rank
// densities plus a dual-rank part, so logs carry real rank diversity.
func DefaultClasses() []Class {
	return []Class{
		{Name: "2Gb-x8", Geom: dram.Geometry{
			Ranks: 1, ChipsPerRank: 8, BanksPerChip: 4,
			RowsPerBank: 1024, ColsPerRow: 256, RedundantCols: 8,
		}},
		{Name: "4Gb-x8", Geom: dram.Geometry{
			Ranks: 1, ChipsPerRank: 8, BanksPerChip: 8,
			RowsPerBank: 2048, ColsPerRow: 256, RedundantCols: 8,
		}},
		{Name: "4Gb-2R", Geom: dram.Geometry{
			Ranks: 2, ChipsPerRank: 8, BanksPerChip: 4,
			RowsPerBank: 1024, ColsPerRow: 256, RedundantCols: 8,
		}},
	}
}

// Config parameterizes one fleet run.
type Config struct {
	// Modules is the fleet size. Required (>= 1).
	Modules int
	// Seed drives all randomness; per-module streams derive from it
	// with parallel.Seed(Seed, module).
	Seed int64
	// Scale in (0,1] shrinks per-module geometries (rows per bank,
	// floor 64); values outside the range select 1.
	Scale float64
	// Workers bounds the goroutines simulating modules; values below 1
	// select runtime.GOMAXPROCS(0). The log is byte-identical for any
	// value.
	Workers int
	// Classes is the geometry-class mix modules draw from; nil selects
	// DefaultClasses.
	Classes []Class
}

// normalize fills defaulted fields and validates the rest.
func (c Config) normalize() (Config, error) {
	if c.Modules < 1 {
		return c, fmt.Errorf("fleet: Modules must be at least 1, got %d", c.Modules)
	}
	if c.Scale <= 0 || c.Scale > 1 {
		c.Scale = 1
	}
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if len(c.Classes) == 0 {
		c.Classes = DefaultClasses()
	}
	for _, cl := range c.Classes {
		if err := cl.Geom.Validate(); err != nil {
			return c, fmt.Errorf("fleet: class %q: %w", cl.Name, err)
		}
	}
	return c, nil
}

// ModuleInfo is the per-module ground truth a run records alongside
// the event log.
type ModuleInfo struct {
	// Module is the fleet index.
	Module int
	// Class and Content name the drawn geometry class and SPEC
	// content class.
	Class, Content string
	// WeakScale is the module's fault-population quality factor (the
	// multiplier applied to the class weak-cell fraction).
	WeakScale float64
	// CEs is the module's total correctable-error count.
	CEs int
	// UEAtNs is the simulated time of the module's first uncorrectable
	// error, or -1 when the module survived the observation window.
	UEAtNs int64
}

// Log is one fleet run's output: the canonical CE event log plus the
// per-module ground truth.
type Log struct {
	// Modules is the fleet size.
	Modules int
	// Epochs and EpochNs describe the observation window.
	Epochs  int
	EpochNs int64
	// Events holds every CE in canonical (Module, At, Rank, Bank, Row,
	// Col) order.
	Events []Event
	// Info holds one entry per module, in module order.
	Info []ModuleInfo
}

// Run simulates the fleet and returns its CE log. The result is a pure
// function of the normalized Config minus Workers, which only
// schedules the work.
func Run(ctx context.Context, cfg Config) (*Log, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	type moduleOut struct {
		events []Event
		info   ModuleInfo
	}
	modules, err := parallel.Map(ctx, cfg.Modules, cfg.Workers, func(m int) (moduleOut, error) {
		ev, info, err := simModule(cfg, m)
		if err != nil {
			return moduleOut{}, fmt.Errorf("fleet: module %d: %w", m, err)
		}
		return moduleOut{ev, info}, nil
	})
	if err != nil {
		return nil, err
	}
	log := &Log{Modules: cfg.Modules, Epochs: DefaultEpochs, EpochNs: EpochNs}
	for _, m := range modules {
		log.Events = append(log.Events, m.events...)
		log.Info = append(log.Info, m.info)
	}
	return log, nil
}

// simModule runs one module's observation window. Everything derives
// from the module's own splitmix64-derived seed, so the result is
// independent of which worker executes it.
func simModule(cfg Config, module int) ([]Event, ModuleInfo, error) {
	seed := parallel.Seed(cfg.Seed, module)
	rng := rand.New(rand.NewSource(seed))

	class := cfg.Classes[rng.Intn(len(cfg.Classes))]
	geom := class.Geom
	geom.RowsPerBank = int(float64(geom.RowsPerBank) * cfg.Scale)
	if geom.RowsPerBank < 64 {
		geom.RowsPerBank = 64
	}

	specs := workload.SPECContents()
	spec := specs[rng.Intn(len(specs))]

	// Module quality: a cubed uniform draw keeps most modules near the
	// quiet end while a few carry several times the nominal weak-cell
	// population — the skew field CE logs show.
	q := rng.Float64()
	weakScale := 0.05 + 2.5*q*q*q

	params := faults.DefaultParams()
	params.WeakCellFraction *= weakScale

	info := ModuleInfo{
		Module: module, Class: class.Name, Content: spec.Name,
		WeakScale: weakScale, UEAtNs: -1,
	}

	// One tester per rank: ranks are electrically independent chips,
	// so each gets its own fault population from a rank-salted seed.
	testers := make([]*softmc.Tester, geom.Ranks)
	for r := range testers {
		rankSeed := uint64(parallel.Seed(seed, r+1))
		scr := dram.NewScrambler(geom, rankSeed, nil)
		model, err := faults.NewModel(geom, scr, rankSeed, params)
		if err != nil {
			return nil, ModuleInfo{}, err
		}
		mod, err := dram.NewModule(geom)
		if err != nil {
			return nil, ModuleInfo{}, err
		}
		t, err := softmc.NewTester(mod, model)
		if err != nil {
			return nil, ModuleInfo{}, err
		}
		testers[r] = t
	}

	var events []Event
	floor := float64(params.RetentionFloor)
	for epoch := 0; epoch < DefaultEpochs; epoch++ {
		at := int64(epoch+1) * EpochNs
		// The vulnerable idle window this epoch's rows sat through
		// before the scrub: log-uniform in [0.5, 2] refresh floors.
		// Draws are per epoch, not per rank, so rank count does not
		// perturb the module's RNG stream.
		idle := dram.Nanoseconds(floor * math.Exp((rng.Float64()*2-1)*math.Ln2))
		phaseImg := spec.Image(geom.RowsPerBank, geom.ColsPerRow, epoch, seed)
		ue := false
		for r, tester := range testers {
			fails, err := tester.RunContent(phaseImg, idle)
			if err != nil {
				return nil, ModuleInfo{}, err
			}
			for _, f := range fails {
				// FailingCells reports system columns, which the
				// scrambler permutes out of physical order; the log
				// wants canonical column order within a row (and the
				// UE check below wants sorted neighbours).
				sort.Ints(f.Cells)
				for i, c := range f.Cells {
					events = append(events, Event{
						Module: uint32(module), Rank: uint8(r),
						Bank: uint8(f.Addr.Bank), Row: uint32(f.Addr.Row),
						Col: uint32(c), At: at,
					})
					info.CEs++
					// Two flips inside one ECC word defeat SEC-DED.
					// The x8 interleave maps a chip's 8-column-aligned
					// groups onto words; cells are sorted ascending,
					// so only the previous one can share the group.
					if i > 0 && f.Cells[i-1]/8 == c/8 {
						ue = true
					}
				}
			}
		}
		if ue {
			info.UEAtNs = at
			break // the module is retired at its first UE
		}
	}
	return events, info, nil
}
