package experiments

import (
	"math"
	"slices"
	"testing"

	"memcon/internal/trace"
	"memcon/internal/workload"
)

// halve is the trace transform fig19Intervals streams: a copy of the
// trace in which each page's first write moves to half its time and
// every later write follows the page's previous one by half the
// original gap, in integer microseconds, over half the duration. The
// duration is raised to the last halved write should it lie beyond.
func halve(t *trace.Trace) *trace.Trace {
	perPage := make(map[uint32][]trace.Microseconds)
	var pages []uint32
	for _, e := range t.Events {
		if perPage[e.Page] == nil {
			pages = append(pages, e.Page)
		}
		perPage[e.Page] = append(perPage[e.Page], e.At)
	}
	slices.Sort(pages)
	var b trace.Builder
	for _, page := range pages {
		times := perPage[page]
		at := times[0] / 2
		b.Add(page, at)
		for i := 1; i < len(times); i++ {
			at += (times[i] - times[i-1]) / 2
			b.Add(page, at)
		}
	}
	out := b.Trace(t.Name+"-halved", t.Duration/2)
	if n := len(out.Events); n > 0 && out.Events[n-1].At > out.Duration {
		out.Duration = out.Events[n-1].At
	}
	return out
}

// sameBits fails the test unless got equals want bit for bit.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d intervals, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: interval %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestFig19IntervalsMatchTrace pins fig19's streamed pass to the trace
// path it replaces: for the twelve applications at three seeds and
// three scales, the full intervals equal Generate(...).Intervals(true)
// and the halved ones halve(Generate(...)).Intervals(true), by
// math.Float64bits and in order.
func TestFig19IntervalsMatchTrace(t *testing.T) {
	for _, app := range workload.Apps() {
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{42, 7, -3} {
				for _, scale := range []float64{0.01, 0.05, 0.1} {
					tr := app.Generate(seed, scale)
					var full, halved []float64
					fig19Intervals(app, seed, scale,
						func(ms float64) { full = append(full, ms) },
						func(ms float64) { halved = append(halved, ms) })
					sameBits(t, "full", full, tr.Intervals(true))
					sameBits(t, "halved", halved, halve(tr).Intervals(true))
				}
			}
		})
	}
}
