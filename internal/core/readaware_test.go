package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"memcon/internal/dram"
	"memcon/internal/trace"
)

func TestReadSkipAnalysisBasics(t *testing.T) {
	// One page, duration 10 windows of 64 ms, reads in windows 0, 1, 5.
	iv := dram.RefreshWindowDefault
	ivUs := trace.Microseconds(iv / dram.Microsecond)
	reads := &trace.Trace{
		Duration: 10 * ivUs,
		Events: []trace.Event{
			{Page: 0, At: 1},
			{Page: 0, At: ivUs + 5},
			{Page: 0, At: ivUs + 7}, // same window as the previous read
			{Page: 0, At: 5*ivUs + 3},
		},
	}
	rep, err := ReadSkipAnalysis(reads, iv)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PagesWithReads != 1 {
		t.Errorf("pages = %d, want 1", rep.PagesWithReads)
	}
	if math.Abs(rep.Scheduled-10) > 1e-9 {
		t.Errorf("scheduled = %v, want 10", rep.Scheduled)
	}
	if rep.Skipped != 3 {
		t.Errorf("skipped = %v, want 3 (windows 0, 1, 5)", rep.Skipped)
	}
	if math.Abs(rep.SkipFraction()-0.3) > 1e-9 {
		t.Errorf("skip fraction = %v, want 0.3", rep.SkipFraction())
	}
}

// A read in the trace's trailing partial window skips only the share
// of a refresh that window is charged: one page over 96 ms at a 64 ms
// interval, read at 10 ms and 70 ms, is scheduled 1.5 refreshes and
// skips 1.5, not 2, so combined savings stay within 100 %.
func TestReadSkipTrailingWindow(t *testing.T) {
	reads := &trace.Trace{
		Duration: 96 * trace.Millisecond,
		Events: []trace.Event{
			{Page: 0, At: 10 * trace.Millisecond},
			{Page: 0, At: 70 * trace.Millisecond},
		},
	}
	rep, err := ReadSkipAnalysis(reads, dram.RefreshWindowDefault)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scheduled != 1.5 || rep.Skipped != 1.5 || rep.SkipFraction() != 1 {
		t.Errorf("scheduled %v, skipped %v, fraction %v; want 1.5, 1.5, 1",
			rep.Scheduled, rep.Skipped, rep.SkipFraction())
	}
	if got := CombinedSavings(Report{BaselineOps: 100, RefreshOps: 30}, rep); got > 1 {
		t.Errorf("combined savings %v above 100 %%", got)
	}
}

// No page skips more refreshes than it is scheduled, and a page read in
// every window, the trailing partial one included, skips exactly its
// scheduled refreshes.
func TestReadSkipNeverExceedsScheduled(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		ivUs := trace.Microseconds(1 + rng.Int63n(100_000))
		dur := trace.Microseconds(rng.Int63n(40 * int64(ivUs)))
		reads := &trace.Trace{Duration: dur}
		// Page 0 is read in every window; page 1 at random times.
		for at := trace.Microseconds(0); at <= dur; at += ivUs {
			reads.Events = append(reads.Events, trace.Event{Page: 0, At: at})
		}
		if dur%ivUs != 0 {
			reads.Events = append(reads.Events, trace.Event{Page: 0, At: dur})
		}
		var random []trace.Microseconds
		for n := rng.Intn(50); n > 0; n-- {
			random = append(random, trace.Microseconds(rng.Int63n(int64(dur)+1)))
		}
		slices.Sort(random)
		for _, at := range random {
			reads.Events = append(reads.Events, trace.Event{Page: 1, At: at})
		}
		slices.SortStableFunc(reads.Events, func(a, b trace.Event) int { return cmp.Compare(a.At, b.At) })
		iv := dram.Nanoseconds(ivUs) * dram.Microsecond
		every, err := ReadSkipAnalysis(&trace.Trace{Duration: dur, Events: pageEvents(reads, 0)}, iv)
		if err != nil {
			t.Fatal(err)
		}
		if every.Skipped != every.Scheduled {
			t.Fatalf("case %d (interval %d us, duration %d us): page read in every window skips %v of %v",
				i, ivUs, dur, every.Skipped, every.Scheduled)
		}
		some, err := ReadSkipAnalysis(&trace.Trace{Duration: dur, Events: pageEvents(reads, 1)}, iv)
		if err != nil {
			t.Fatal(err)
		}
		both, err := ReadSkipAnalysis(reads, iv)
		if err != nil {
			t.Fatal(err)
		}
		if some.Skipped > some.Scheduled || both.Skipped > both.Scheduled {
			t.Fatalf("case %d (interval %d us, duration %d us): skipped %v of %v (random page), %v of %v (both)",
				i, ivUs, dur, some.Skipped, some.Scheduled, both.Skipped, both.Scheduled)
		}
	}
}

// refReadSkip is the per-page read-skip algorithm ReadSkipAnalysis
// replaced, visiting pages in ascending order: each page is scheduled
// windowsPerPage refreshes and skips one per distinct window it was
// read in, the trailing partial window only its fraction.
func refReadSkip(reads *trace.Trace, interval dram.Nanoseconds) ReadSkipReport {
	intervalUs := trace.Microseconds(interval / dram.Microsecond)
	windowsPerPage := float64(reads.Duration) / float64(intervalUs)
	full := reads.Duration / intervalUs
	trailing := windowsPerPage - float64(full)
	perPage := make(map[uint32][]trace.Microseconds)
	var pages []uint32
	for _, e := range reads.Events {
		if perPage[e.Page] == nil {
			pages = append(pages, e.Page)
		}
		perPage[e.Page] = append(perPage[e.Page], e.At)
	}
	slices.Sort(pages)
	var rep ReadSkipReport
	for _, page := range pages {
		rep.PagesWithReads++
		rep.Scheduled += windowsPerPage
		seen := make(map[trace.Microseconds]struct{})
		for _, at := range perPage[page] {
			seen[at/intervalUs] = struct{}{}
		}
		skipped := float64(len(seen))
		if _, ok := seen[full]; ok {
			skipped = float64(len(seen)-1) + trailing
		}
		rep.Skipped += skipped
	}
	return rep
}

// TestReadSkipMatchesPerPageReference holds ReadSkipAnalysis to
// refReadSkip on random read traces. The trailing window's fraction is
// dyadic (0, 1/4, 1/2 or 3/4) in half the cases, where every term is
// exact and Skipped must match bit for bit, and arbitrary in the
// others, where the two summation orders may round apart and Skipped
// must match within 1e-12 relative. PagesWithReads and Scheduled match
// exactly in every case.
func TestReadSkipMatchesPerPageReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 400; i++ {
		ivUs := 4 * trace.Microseconds(1+rng.Int63n(25_000))
		dyadic := i%2 == 0
		rest := ivUs / 4 * trace.Microseconds(rng.Intn(4))
		if !dyadic {
			rest = rng.Int63n(int64(ivUs))
		}
		dur := ivUs*trace.Microseconds(rng.Intn(60)) + rest
		reads := &trace.Trace{Duration: dur}
		for n := rng.Intn(2000); n > 0; n-- {
			page := uint32(rng.Intn(64)) * 40_009
			reads.Events = append(reads.Events, trace.Event{Page: page, At: rng.Int63n(int64(dur) + 1)})
		}
		slices.SortStableFunc(reads.Events, func(a, b trace.Event) int { return cmp.Compare(a.At, b.At) })
		iv := dram.Nanoseconds(ivUs) * dram.Microsecond
		got, err := ReadSkipAnalysis(reads, iv)
		if err != nil {
			t.Fatal(err)
		}
		want := refReadSkip(reads, iv)
		if got.PagesWithReads != want.PagesWithReads || got.Scheduled != want.Scheduled {
			t.Fatalf("case %d (interval %d us, duration %d us): pages %d, scheduled %v; want %d, %v",
				i, ivUs, dur, got.PagesWithReads, got.Scheduled, want.PagesWithReads, want.Scheduled)
		}
		if dyadic && got.Skipped != want.Skipped ||
			math.Abs(got.Skipped-want.Skipped) > 1e-12*math.Abs(want.Skipped) {
			t.Fatalf("case %d (interval %d us, duration %d us, dyadic %v): skipped %v, want %v",
				i, ivUs, dur, dyadic, got.Skipped, want.Skipped)
		}
	}
}

// pageEvents returns the trace's events on one page.
func pageEvents(tr *trace.Trace, page uint32) []trace.Event {
	var out []trace.Event
	for _, e := range tr.Events {
		if e.Page == page {
			out = append(out, e)
		}
	}
	return out
}

func TestReadSkipAnalysisErrors(t *testing.T) {
	if _, err := ReadSkipAnalysis(&trace.Trace{}, 0); err == nil {
		t.Error("zero interval accepted")
	}
	bad := &trace.Trace{Events: []trace.Event{{Page: 0, At: 5}, {Page: 0, At: 1}}}
	if _, err := ReadSkipAnalysis(bad, dram.RefreshWindowDefault); err == nil {
		t.Error("invalid trace accepted")
	}
}

func TestReadSkipEmptyTrace(t *testing.T) {
	rep, err := ReadSkipAnalysis(&trace.Trace{Duration: 1000}, dram.RefreshWindowDefault)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scheduled != 0 || rep.SkipFraction() != 0 {
		t.Errorf("empty trace report %+v", rep)
	}
}

func TestReadSkipDenseReadsSkipEverything(t *testing.T) {
	iv := dram.RefreshWindowDefault
	ivUs := trace.Microseconds(iv / dram.Microsecond)
	reads := &trace.Trace{Duration: 20 * ivUs}
	for w := trace.Microseconds(0); w < 20; w++ {
		reads.Events = append(reads.Events, trace.Event{Page: 3, At: w*ivUs + 10})
	}
	rep, err := ReadSkipAnalysis(reads, iv)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.SkipFraction()-1.0) > 1e-9 {
		t.Errorf("dense reads skip fraction = %v, want 1.0", rep.SkipFraction())
	}
}

func TestCombinedSavings(t *testing.T) {
	// MEMCON at 70% reduction plus read-skip covering half the residual
	// refreshes: total 85%.
	rep := Report{BaselineOps: 100, RefreshOps: 30}
	rs := ReadSkipReport{Scheduled: 10, Skipped: 5}
	got := CombinedSavings(rep, rs)
	if math.Abs(got-0.85) > 1e-9 {
		t.Errorf("combined = %v, want 0.85", got)
	}
	// No reads: combined equals MEMCON alone.
	if got := CombinedSavings(rep, ReadSkipReport{}); math.Abs(got-0.7) > 1e-9 {
		t.Errorf("combined without reads = %v, want 0.7", got)
	}
}
