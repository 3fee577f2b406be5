package trace

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refSort is the oracle for Builder and Sort: a comparison-based
// stable sort by timestamp.
func refSort(events []Event) []Event {
	out := slices.Clone(events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// sortCase returns n events whose timestamps are lo plus a random
// offset below span (span 0 draws from the full int64 range). Page is
// the insertion index, so any tie reordered by an unstable sort shows.
func sortCase(rng *rand.Rand, n int, lo Microseconds, span uint64) []Event {
	events := make([]Event, n)
	for i := range events {
		off := rng.Uint64()
		if span > 0 {
			off %= span
		}
		events[i] = Event{Page: uint32(i), At: Microseconds(uint64(lo) + off)}
	}
	return events
}

// runsCase concatenates one non-decreasing run per entry of lens, each
// spread over about [0, span) as a generated page's writes spread over
// its trace, so the runs overlap in time; steps of zero make ties
// within and across runs. Page is the insertion index.
func runsCase(rng *rand.Rand, span int64, lens ...int) []Event {
	var events []Event
	for _, n := range lens {
		step := max(1, 2*span/int64(n))
		at := rng.Int63n(step)
		for i := 0; i < n; i++ {
			events = append(events, Event{Page: uint32(len(events)), At: at})
			at += rng.Int63n(step)
		}
	}
	return events
}

// coarsen clears the low bits of every timestamp, turning a wide span
// into a few widely spaced values that many events share.
func coarsen(events []Event, low uint) []Event {
	for i := range events {
		events[i].At &^= 1<<low - 1
	}
	return events
}

// sortCases are the inputs the sort is checked on: the run shapes the
// merge sees (a generated trace's two long runs and 150 short ones,
// one run per event, sawtooth, ties across run boundaries, a single
// run) and random input with many ties, negative timestamps, the full
// int64 range and more events than one Builder block.
func sortCases() []struct {
	name   string
	events []Event
} {
	rng := rand.New(rand.NewSource(1))
	generated := []int{3 * blockEvents, blockEvents + 77}
	for i := 0; i < 150; i++ {
		generated = append(generated, 1+rng.Intn(40))
	}
	descending := make([]Event, 5000)
	sawtooth := make([]Event, 5000)
	for i := range descending {
		descending[i] = Event{Page: uint32(i), At: Microseconds(len(descending) - i)}
		sawtooth[i] = Event{Page: uint32(i), At: Microseconds(i % 97)}
	}
	return []struct {
		name   string
		events []Event
	}{
		{"empty", nil},
		{"single", []Event{{Page: 7, At: -5}}},
		{"sorted", []Event{{1, 3}, {2, 3}, {3, 9}, {4, 12}}},
		{"generator shape", runsCase(rng, 100*Second, generated...)},
		{"strictly descending", descending},
		{"sawtooth", sawtooth},
		{"ties at run boundaries", []Event{{1, 3}, {2, 5}, {3, 5}, {4, 7}, {5, 5}, {6, 5}, {7, 6}, {8, 7}, {9, 7}, {10, 5}, {11, 7}, {12, 3}}},
		{"ties across runs", runsCase(rng, 8, 700, 300, 1, 1, 2, 500, 64, 3, 900)},
		{"single run", runsCase(rng, 1000, 5000)},
		{"all ties", sortCase(rng, 3000, 77, 1)},
		{"many ties", sortCase(rng, 5000, 0, 16)},
		{"random negative", sortCase(rng, 5000, -1<<21, 1<<22)},
		{"random across blocks", sortCase(rng, 3*blockEvents+123, 0, 300*uint64(Second))},
		{"ties across blocks", coarsen(sortCase(rng, 2*blockEvents+5, -1<<30, 1<<26), 20)},
		{"full int64 range", sortCase(rng, 5000, math.MinInt64, 0)},
		{"extremes", []Event{{1, math.MaxInt64}, {2, math.MinInt64}, {3, 0}, {4, math.MaxInt64}, {5, -1}, {6, math.MinInt64}}},
	}
}

// TestSortMatchesStableReference checks Builder and Trace.Sort against
// sort.SliceStable on every sortCases input.
func TestSortMatchesStableReference(t *testing.T) {
	for _, tc := range sortCases() {
		want := refSort(tc.events)

		var b Builder
		for _, e := range tc.events {
			b.Add(e.Page, e.At)
		}
		got := b.Trace(tc.name, 1).Events
		if !slices.Equal(got, want) {
			t.Errorf("%s: Builder order differs from sort.SliceStable", tc.name)
		}
		if len(got) != cap(got) {
			t.Errorf("%s: Builder events len %d, cap %d", tc.name, len(got), cap(got))
		}
		if again := b.Trace("again", 1); len(again.Events) != 0 {
			t.Errorf("%s: Builder kept %d events after Trace", tc.name, len(again.Events))
		}

		tr := &Trace{Events: slices.Clone(tc.events)}
		tr.Sort()
		if !slices.Equal(tr.Events, want) {
			t.Errorf("%s: Sort order differs from sort.SliceStable", tc.name)
		}
	}
}

// TestSortInPlace pins Sort's contract for callers that keep the
// Events slice: the sorted events land in the same backing array.
func TestSortInPlace(t *testing.T) {
	for _, tc := range sortCases() {
		if len(tc.events) == 0 {
			continue
		}
		events := tc.events
		want := refSort(events)
		tr := &Trace{Events: events}
		tr.Sort()
		if &tr.Events[0] != &events[0] || !slices.Equal(events, want) {
			t.Errorf("%s: Sort did not sort the caller's slice in place", tc.name)
		}
	}
}

// TestSortSortedAllocationFree pins that Sort on sorted input, the
// common case for hand-built and captured traces, is one scan with no
// scratch buffer.
func TestSortSortedAllocationFree(t *testing.T) {
	tr := &Trace{Events: refSort(runsCase(rand.New(rand.NewSource(2)), 1000, 5000, 3000))}
	if n := testing.AllocsPerRun(10, tr.Sort); n != 0 {
		t.Errorf("Sort of %d sorted events allocates %.1f times per call, want 0", len(tr.Events), n)
	}
}

// refIntervals is the map-based Intervals: per-page timestamp lists,
// visited in ascending page order.
func refIntervals(t *Trace, includeTrailing bool) []float64 {
	perPage := make(map[uint32][]Microseconds)
	var pages []uint32
	for _, e := range t.Events {
		if perPage[e.Page] == nil {
			pages = append(pages, e.Page)
		}
		perPage[e.Page] = append(perPage[e.Page], e.At)
	}
	slices.Sort(pages)
	var out []float64
	for _, page := range pages {
		times := perPage[page]
		for i := 1; i < len(times); i++ {
			out = append(out, float64(times[i]-times[i-1])/float64(Millisecond))
		}
		if includeTrailing && t.Duration > times[len(times)-1] {
			out = append(out, float64(t.Duration-times[len(times)-1])/float64(Millisecond))
		}
	}
	return out
}

// TestIntervalsMatchReference compares Intervals bit for bit against
// refIntervals on random traces with page ids near 2^32−1, pages
// written once, repeated timestamps and an event exactly at Duration.
func TestIntervalsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pagePool := []uint32{0, 1, 2, 1 << 31, math.MaxUint32 - 2, math.MaxUint32 - 1, math.MaxUint32}
	for trial := 0; trial < 50; trial++ {
		tr := &Trace{Name: "diff"}
		var at Microseconds
		n := rng.Intn(400)
		for i := 0; i < n; i++ {
			at += Microseconds(rng.Intn(3)) * Microseconds(rng.Intn(2_000_000))
			page := pagePool[rng.Intn(len(pagePool))]
			if rng.Intn(4) == 0 {
				page = rng.Uint32() // most of these pages are written once
			}
			tr.Events = append(tr.Events, Event{Page: page, At: at})
		}
		tr.Duration = at // the last event sits exactly at Duration
		if trial%2 == 1 {
			tr.Duration += Microseconds(rng.Intn(5_000_000))
		}
		for _, trailing := range []bool{false, true} {
			got, want := tr.Intervals(trailing), refIntervals(tr, trailing)
			if len(got) != len(want) {
				t.Fatalf("trial %d trailing=%v: %d intervals, want %d", trial, trailing, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d trailing=%v: interval %d = %v, want %v", trial, trailing, i, got[i], want[i])
				}
			}
		}
	}
}

// TestIntervalSinkMatchesIntervals feeds IntervalSink the events of
// random traces page after page in ascending order, each page's in time
// order, and holds what it emits, bit for bit and in order, to
// Intervals, with and without trailing intervals.
func TestIntervalSinkMatchesIntervals(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		tr := &Trace{Name: "sink"}
		var at Microseconds
		for i := rng.Intn(300); i > 0; i-- {
			at += Microseconds(rng.Intn(3)) * Microseconds(rng.Intn(2_000_000))
			tr.Events = append(tr.Events, Event{Page: uint32(rng.Intn(40)) * 997, At: at})
		}
		tr.Duration = at + Microseconds(rng.Intn(2))*Microseconds(rng.Intn(5_000_000))
		byPage := slices.Clone(tr.Events)
		slices.SortStableFunc(byPage, func(a, b Event) int { return cmp.Compare(a.Page, b.Page) })
		for _, trailing := range []bool{false, true} {
			var got []float64
			s := &IntervalSink{Fn: func(ms float64) { got = append(got, ms) }, Trailing: trailing, End: tr.Duration}
			for _, e := range byPage {
				s.Add(e.Page, e.At)
			}
			s.Close()
			want := tr.Intervals(trailing)
			if len(got) != len(want) {
				t.Fatalf("trial %d trailing=%v: %d intervals, want %d", trial, trailing, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d trailing=%v: interval %d = %v, want %v", trial, trailing, i, got[i], want[i])
				}
			}
		}
	}
}
