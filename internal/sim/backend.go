package sim

import (
	"fmt"

	"memcon/internal/ddr3"
	"memcon/internal/dram"
	"memcon/internal/workload"
)

// RunCommandLevel runs the same core model as Run but against the
// command-level ddr3 controller instead of the aggregate memctrl model.
// It is ~10x slower per simulated nanosecond and exists for validation
// and for users who need command-accurate latency distributions; the
// big Fig. 15/16 sweeps use Run.
//
// Differences from Run: test-traffic injection and refresh postponement
// probability are not modelled here (the ddr3 scheduler has its own
// JEDEC-compliant REF postponement), so compare trends, not absolutes.
func RunCommandLevel(cfg Config, memCfg ddr3.Config) (Result, error) {
	if len(cfg.Mix) == 0 {
		return Result{}, fmt.Errorf("sim: empty benchmark mix")
	}
	if cfg.SimTime <= 0 {
		return Result{}, fmt.Errorf("sim: simulation time must be positive, got %d", cfg.SimTime)
	}
	if err := memCfg.Validate(); err != nil {
		return Result{}, err
	}
	ctrl, err := ddr3.New(memCfg)
	if err != nil {
		return Result{}, err
	}

	reqID := 0
	return simulate(cfg, memCfg.Banks, func(issue dram.Nanoseconds, bank, row int, write bool) (dram.Nanoseconds, error) {
		reqID++
		done, err := ctrl.ServeOne(ddr3.Request{ID: reqID, Arrival: issue, Bank: bank, Row: row, Write: write})
		return done.Done, err
	})
}

// CommandLevelSpeedup runs baseline and scheme configurations of the
// command-level backend over the same mix and seed and returns the
// weighted speedup of scheme over baseline.
func CommandLevelSpeedup(mix []workload.CoreParams, base, scheme ddr3.Config, simTime dram.Nanoseconds, seed int64) (float64, error) {
	b, err := RunCommandLevel(Config{Mix: mix, SimTime: simTime, Seed: seed}, base)
	if err != nil {
		return 0, err
	}
	s, err := RunCommandLevel(Config{Mix: mix, SimTime: simTime, Seed: seed}, scheme)
	if err != nil {
		return 0, err
	}
	return WeightedSpeedup(b, s)
}
