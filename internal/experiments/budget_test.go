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

// TestIntervalFigureAllocationBudget holds the write-interval figures
// to their allocation budgets. They read each application's intervals
// straight off the generator, so a figure that builds its traces again
// (42-101 MB each) fails here. fig8 holds the intervals of at least
// 1 ms it fits, sorted once for all its candidate thresholds. With
// Go 1.24.0, fig7, fig9, fig11 and fig12 allocate 0.05-0.12 MB and fig8
// 1.4 MB.
func TestIntervalFigureAllocationBudget(t *testing.T) {
	checkAllocationBudgets(t, []allocationBudget{
		{"fig7", 1 * mib},
		{"fig8", 2 * mib},
		{"fig9", 1 * mib},
		{"fig11", 1 * mib},
		{"fig12", 1 * mib},
	})
}

// TestEngineFigureAllocationBudget holds the ids that replay traces
// through the engine to their allocation budgets. fig14, fig17 and
// fig18 each generate the twelve application traces once (75 MB with
// Go 1.24.0), and energy one trace (6.2 MB), so a second generation in
// any of them fails here.
func TestEngineFigureAllocationBudget(t *testing.T) {
	checkAllocationBudgets(t, []allocationBudget{
		{"fig14", 80 * mib},
		{"fig17", 80 * mib},
		{"fig18", 80 * mib},
		{"energy", 8 * mib},
	})
}
