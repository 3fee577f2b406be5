package workload

import (
	"runtime"
	"testing"
	"unsafe"

	"memcon/internal/trace"
)

// allocated returns the bytes the heap handed out while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestGenerateAllocationContract pins what trace synthesis costs in
// memory: Generate returns an exactly-sized event slice and allocates
// at most 2.75× the bytes it returns (the Builder's blocks, the output
// and the merge scratch, at most half the events), and Intervals at
// most 2× its output (the output, one int32 slot per event, and
// per-page side arrays).
func TestGenerateAllocationContract(t *testing.T) {
	app, err := AppByName("SystemMgt")
	if err != nil {
		t.Fatal(err)
	}
	var tr *trace.Trace
	genBytes := allocated(func() { tr = app.Generate(42, 0.05) })
	if len(tr.Events) != cap(tr.Events) {
		t.Errorf("Generate: len(Events) = %d, cap = %d; want equal", len(tr.Events), cap(tr.Events))
	}
	eventBytes := uint64(len(tr.Events)) * uint64(unsafe.Sizeof(trace.Event{}))
	if ratio := float64(genBytes) / float64(eventBytes); ratio > 2.75 {
		t.Errorf("Generate allocated %d bytes for %d bytes of events (%.2f×), want ≤ 2.75×", genBytes, eventBytes, ratio)
	}

	var ivs []float64
	ivBytes := allocated(func() { ivs = tr.Intervals(true) })
	outBytes := uint64(len(ivs)) * uint64(unsafe.Sizeof(float64(0)))
	if ratio := float64(ivBytes) / float64(outBytes); ratio > 2 {
		t.Errorf("Intervals(true) allocated %d bytes for %d bytes of output (%.2f×), want ≤ 2×", ivBytes, outBytes, ratio)
	}
	t.Logf("Generate %.2f× its event bytes, Intervals %.2f× its output bytes",
		float64(genBytes)/float64(eventBytes), float64(ivBytes)/float64(outBytes))
}
