package workload

import (
	"math"
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

// TestImageAllocationContract pins a content image to one backing
// slab: Image allocates the slab, the row headers and its math/rand
// source (the source's 607-word register escapes to the heap), never
// one allocation per row, and each row's capacity ends at its own last
// word so an append to one row cannot overwrite the next.
func TestImageAllocationContract(t *testing.T) {
	spec, err := ContentByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	const rows, cols = 4096, 1024
	if n := testing.AllocsPerRun(5, func() { spec.Image(rows, cols, 1, 42) }); n > 3 {
		t.Errorf("Image(%d rows) made %.0f allocations, want ≤ 3", rows, n)
	}
	for r, row := range spec.Image(rows, cols, 1, 42) {
		if len(row) != cols/64 || cap(row) != cols/64 {
			t.Fatalf("row %d: len %d, cap %d; want both %d", r, len(row), cap(row), cols/64)
		}
	}
}

// TestEachIntervalAllocationContract pins EachInterval to the memory
// of its generator, not of a trace: it allocates the math/rand source
// and a sink, the same at scale 0.05 and 0.3, and at most 8 KiB. Each
// scale takes the fewest bytes over three calls, so an allocation made
// elsewhere in the process during one call does not count against it.
func TestEachIntervalAllocationContract(t *testing.T) {
	app, err := AppByName("SystemMgt")
	if err != nil {
		t.Fatal(err)
	}
	var sizes []uint64
	for _, scale := range []float64{0.05, 0.3} {
		var n int
		got := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			n = 0
			got = min(got, allocated(func() { app.EachInterval(42, scale, true, func(float64) { n++ }) }))
		}
		if n == 0 {
			t.Fatalf("scale %v: no intervals", scale)
		}
		if got > 8<<10 {
			t.Errorf("EachInterval at scale %v allocated %d bytes for %d intervals, want ≤ 8 KiB", scale, got, n)
		}
		sizes = append(sizes, got)
	}
	if sizes[0] != sizes[1] {
		t.Errorf("EachInterval allocated %d bytes at scale 0.05 and %d at 0.3, want the same", sizes[0], sizes[1])
	}
	t.Logf("EachInterval allocated %d bytes", sizes[0])
}
