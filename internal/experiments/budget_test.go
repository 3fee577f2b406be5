package experiments

import (
	"context"
	"runtime"
	"testing"
)

// TestIntervalFigureAllocationBudget holds the write-interval figures
// to the bytes a run allocates at reports scale (seed 42, scale 0.05,
// one worker), measured as runtime.MemStats.TotalAlloc around
// RunRequest. They read each application's intervals straight off the
// generator, so a figure that builds its traces again (42-101 MB each)
// fails here on any host, without a clock. fig8 holds the intervals of
// at least 1 ms it fits. Bytes allocated can move with the toolchain:
// the budgets were set with Go 1.24.0, where fig7, fig9, fig11 and
// fig12 allocate 0.05-0.12 MB and fig8 11.9 MB.
func TestIntervalFigureAllocationBudget(t *testing.T) {
	const mib = 1 << 20
	for _, b := range []struct {
		id     string
		budget uint64
	}{
		{"fig7", 1 * mib},
		{"fig8", 32 * mib},
		{"fig9", 1 * mib},
		{"fig11", 1 * mib},
		{"fig12", 1 * mib},
	} {
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
