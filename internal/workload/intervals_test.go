package workload

import (
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"memcon/internal/trace"
)

// eachIntervalMatches generates app's trace for (seed, scale) and fails
// the test unless EachInterval streams, bit for bit and in order, the
// trace's Intervals, with and without trailing intervals.
func eachIntervalMatches(t *testing.T, app AppSpec, seed int64, scale float64) {
	t.Helper()
	tr := app.Generate(seed, scale)
	for _, trailing := range []bool{true, false} {
		want := tr.Intervals(trailing)
		n := 0
		app.EachInterval(seed, scale, trailing, func(ms float64) {
			if n < len(want) && math.Float64bits(ms) != math.Float64bits(want[n]) {
				t.Fatalf("%s seed %d scale %v trailing %v: interval %d is %v, want %v",
					app.Name, seed, scale, trailing, n, ms, want[n])
			}
			n++
		})
		if n != len(want) {
			t.Fatalf("%s seed %d scale %v trailing %v: %d intervals, want %d",
				app.Name, seed, scale, trailing, n, len(want))
		}
	}
}

// TestEachIntervalMatchesGenerate pins EachInterval to the trace path
// it replaces: the twelve applications at three seeds and three
// scales, with and without trailing intervals, stream exactly
// Generate(...).Intervals(...). The applications run in parallel: the
// matrix is the slowest test of the package under the race detector.
func TestEachIntervalMatchesGenerate(t *testing.T) {
	for _, app := range Apps() {
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{42, 7, -3} {
				for _, scale := range []float64{0.01, 0.05, 0.1} {
					eachIntervalMatches(t, app, seed, scale)
				}
			}
		})
	}
}

// TestEachIntervalMatchesGenerateFullScale repeats the differential at
// full scale for one seed.
func TestEachIntervalMatchesGenerateFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve full-scale traces in -short mode")
	}
	// A full-scale trace and its intervals take up to ~130 MB; collect
	// each application's before the next one's is built.
	defer debug.SetGCPercent(debug.SetGCPercent(25))
	for _, app := range Apps() {
		eachIntervalMatches(t, app, 42, 1)
		runtime.GC()
	}
}

// TestEachWriteMatchesGenerate pins EachWrite's order: page after page
// in ascending order, each page's writes in time order and before
// Duration. Collected into a Builder, its writes are Generate's trace.
func TestEachWriteMatchesGenerate(t *testing.T) {
	for _, app := range Apps() {
		for _, seed := range []int64{42, -3} {
			var b trace.Builder
			var last trace.Event
			n := 0
			app.EachWrite(seed, 0.02, func(page uint32, at trace.Microseconds) {
				if n > 0 && (page < last.Page || page == last.Page && at <= last.At) || at >= app.Duration() {
					t.Fatalf("%s seed %d: write %d (page %d at %d) after (page %d at %d), duration %d",
						app.Name, seed, n, page, at, last.Page, last.At, app.Duration())
				}
				b.Add(page, at)
				last = trace.Event{Page: page, At: at}
				n++
			})
			got, want := b.Trace(app.Name, app.Duration()), app.Generate(seed, 0.02)
			if got.Duration != want.Duration || !slices.Equal(got.Events, want.Events) {
				t.Fatalf("%s seed %d: EachWrite's %d writes differ from Generate's %d",
					app.Name, seed, len(got.Events), len(want.Events))
			}
		}
	}
}
