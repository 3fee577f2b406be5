package experiments

import (
	"context"
	"runtime"
	"testing"
)

// allocationBudget is the most bytes one id may allocate at reports
// scale.
type allocationBudget struct {
	id     string
	budget uint64
}

const mib = 1 << 20

// checkAllocationBudgets runs each id at reports scale (seed 42, scale
// 0.05, one worker) and holds the bytes it allocates, measured as
// runtime.MemStats.TotalAlloc around RunRequest, to its budget. Bytes
// allocated are deterministic, so a run that does more work fails on
// any host, without a clock. They can move with the toolchain: the
// budgets were set with Go 1.24.0.
func checkAllocationBudgets(t *testing.T, budgets []allocationBudget) {
	t.Helper()
	for _, b := range budgets {
		req := DefaultRequest(b.id)
		req.Scale, req.SimTimeNs, req.Mixes = 0.05, 200_000, 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunRequest(context.Background(), req, Runtime{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s allocated %.2f MB", b.id, float64(got)/1e6)
		if got > b.budget {
			t.Errorf("%s allocated %d bytes at reports scale, budget %d", b.id, got, b.budget)
		}
	}
}

// intervalFigureBudgets holds the write-interval figures. They read
// each application's intervals straight off the generator, so a figure
// that builds its traces again (42-101 MB each) fails. fig8 holds the
// intervals of at least 1 ms it fits, sorted once for all its candidate
// thresholds. With Go 1.24.0, fig7, fig9, fig11, fig12 and fig19
// allocate 0.01-0.11 MB and fig8 1.43 MB.
var intervalFigureBudgets = []allocationBudget{
	{"fig7", 1 * mib},
	{"fig8", 2 * mib},
	{"fig9", 1 * mib},
	{"fig11", 1 * mib},
	{"fig12", 1 * mib},
	{"fig19", 1 * mib},
}

// engineFigureBudgets holds the ids that replay traces through the
// engine. fig14, fig17 and fig18 each generate the twelve application
// traces once (75.00-75.36 MB with Go 1.24.0), and energy one trace
// (6.25 MB), so a second generation in any of them fails.
var engineFigureBudgets = []allocationBudget{
	{"fig14", 80 * mib},
	{"fig17", 80 * mib},
	{"fig18", 80 * mib},
	{"energy", 8 * mib},
}

// analyticBudgets holds the ids that only evaluate the cost model or
// list the workloads, with no trace, chip or simulation. With
// Go 1.24.0 they allocate 2-10 KB each (the bytes move by a few hundred
// between runs), so 64 KiB leaves 6x or more headroom and still fails
// on any trace, chip or per-sample buffer.
var analyticBudgets = []allocationBudget{
	{"fig6", 64 << 10},
	{"minwi", 64 << 10},
	{"abl-accel", 64 << 10},
	{"table1", 64 << 10},
}

// simulationBudgets holds the ids driven through the memory-controller
// model: the performance figures and the closed loop, and the RowHammer
// ids. With Go 1.24.0: fig15 1.13 MB, fig16 1.87 MB, table3 0.51 MB,
// loop 0.06-0.07 MB, disturb-exposure 0.13 MB and disturb-mitigation
// 0.24 MB. Each budget leaves 40 % or more headroom; an allocation per
// access or per injected test runs to tens of MB, and fig16 simulating
// each baseline again for every policy (2.94 MB) fails.
var simulationBudgets = []allocationBudget{
	{"fig15", 2 * mib},
	{"fig16", 5 * mib / 2},
	{"table3", 1 * mib},
	{"loop", 128 << 10},
	{"disturb-exposure", 256 << 10},
	{"disturb-mitigation", 512 << 10},
}

// chipBudgets holds the chip-level ids, which build a module and its
// fault model and read it back. With Go 1.24.0: fig3 1.33 MB, fig4
// 9.81 MB, motiv 0.19 MB, vrt 0.74 MB, profile 0.76 MB and abl-remap
// 3.63 MB. Headroom is 18 % (fig4) to 58 % (fig3): a second model build
// at paper-scale rows fails.
var chipBudgets = []allocationBudget{
	{"fig3", 2 * mib},
	{"fig4", 11 * mib},
	{"motiv", 512 << 10},
	{"vrt", 1 * mib},
	{"profile", 1 * mib},
	{"abl-remap", 5 * mib},
}

// traceBudgets holds the remaining trace-driven ids and the fleet ids.
// With Go 1.24.0: abl-buffer 6.32 MB, abl-pril 6.49 MB, fleet-ce
// 1.77 MB and fleet-risk 1.72 MB. The budgets leave 18-33 % headroom.
var traceBudgets = []allocationBudget{
	{"abl-buffer", 8 * mib},
	{"abl-pril", 8 * mib},
	{"fleet-ce", 2 * mib},
	{"fleet-risk", 2 * mib},
}

func TestIntervalFigureAllocationBudget(t *testing.T) {
	checkAllocationBudgets(t, intervalFigureBudgets)
}

func TestEngineFigureAllocationBudget(t *testing.T) {
	checkAllocationBudgets(t, engineFigureBudgets)
}

func TestAnalyticAllocationBudget(t *testing.T) {
	checkAllocationBudgets(t, analyticBudgets)
}

func TestSimulationAllocationBudget(t *testing.T) {
	checkAllocationBudgets(t, simulationBudgets)
}

func TestChipAllocationBudget(t *testing.T) {
	checkAllocationBudgets(t, chipBudgets)
}

func TestTraceAllocationBudget(t *testing.T) {
	checkAllocationBudgets(t, traceBudgets)
}

// TestEveryIDHasAllocationBudget keeps the budgets complete: every
// registered id has exactly one.
func TestEveryIDHasAllocationBudget(t *testing.T) {
	seen := map[string]int{}
	for _, group := range [][]allocationBudget{intervalFigureBudgets, engineFigureBudgets,
		analyticBudgets, simulationBudgets, chipBudgets, traceBudgets} {
		for _, b := range group {
			seen[b.id]++
		}
	}
	for _, id := range IDs() {
		if seen[id] != 1 {
			t.Errorf("%s has %d allocation budgets, want 1", id, seen[id])
		}
		delete(seen, id)
	}
	for id := range seen {
		t.Errorf("budget for unknown id %s", id)
	}
}
