package sim

import (
	"container/heap"
	"fmt"
	"math/rand"

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

	h := make(coreHeap, 0, len(cfg.Mix))
	cores := make([]*core, len(cfg.Mix))
	for i, params := range cfg.Mix {
		instrsPerMiss := 1000.0 / params.MPKI
		c := &core{
			idx:           i,
			params:        params,
			computeNs:     instrsPerMiss / (params.BaseIPC * CoreFreqGHz),
			instrsPerMiss: instrsPerMiss,
			lastRow:       make([]int, memCfg.Banks),
			rng:           rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
		}
		c.now = dram.Nanoseconds(c.rng.Float64() * c.computeNs)
		cores[i] = c
		h = append(h, c)
	}
	heap.Init(&h)

	reqID := 0
	for h[0].now < cfg.SimTime {
		c := h[0]
		issue := c.now
		bank := c.rng.Intn(memCfg.Banks)
		var row int
		if c.rng.Float64() < c.params.RowHitRate {
			row = c.lastRow[bank]
		} else {
			c.rowSeq++
			row = c.idx*1_000_000 + c.rowSeq
		}
		c.lastRow[bank] = row
		write := c.rng.Float64() < c.params.WriteFraction

		reqID++
		done, err := ctrl.ServeOne(ddr3.Request{ID: reqID, Arrival: issue, Bank: bank, Row: row, Write: write})
		if err != nil {
			return Result{}, err
		}
		exposed := float64(done.Done-issue+FrontendLatency) / MLP
		c.instructions += c.instrsPerMiss
		c.now = issue + dram.Nanoseconds(exposed+c.computeNs)
		if c.now <= issue {
			c.now = issue + 1
		}
		heap.Fix(&h, 0)
	}

	res := Result{
		IPC:          make([]float64, len(cores)),
		Instructions: make([]float64, len(cores)),
	}
	cycles := float64(cfg.SimTime) * CoreFreqGHz
	for i, c := range cores {
		res.IPC[i] = c.instructions / cycles
		res.Instructions[i] = c.instructions
	}
	return res, nil
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
