// Package trace defines the memory write-trace representation consumed
// by MEMCON's write-interval analysis and the PRIL predictor. A trace is
// the stream an HMTT-style bus tracer would produce, reduced to what the
// paper's analysis needs: (page, timestamp) pairs for every write request
// reaching DRAM.
//
// Timestamps are in microseconds: intra-burst write gaps are tens of
// microseconds while the intervals MEMCON exploits are hundreds of
// milliseconds, so microseconds cover both ends comfortably in an int64.
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"
)

// Microseconds is the trace time unit.
type Microseconds = int64

// Time conversion constants.
const (
	Millisecond Microseconds = 1000
	Second      Microseconds = 1000 * 1000
)

// Event is a single write request to a page.
type Event struct {
	// Page is the written page (one page maps to one DRAM row).
	Page uint32
	// At is the event timestamp.
	At Microseconds
}

// Trace is a time-ordered sequence of write events.
//
// Producers add their events to a Builder, which returns them sorted;
// Sort is for traces whose Events were assembled by hand.
//
// The analysis accessors (Pages, MaxPage, PageWrites) memoize their
// derived indexes on first use; Sort invalidates them. Mutating Events
// by hand after an accessor has run without calling Sort leaves the
// memos stale. Memoization is race-safe: concurrent readers of a shared
// trace (the experiment sweeps fan one trace out across workers) may
// all trigger the first computation, and one result wins.
type Trace struct {
	// Name labels the workload that produced the trace.
	Name string
	// Duration is the traced execution time; it is at least the last
	// event timestamp.
	Duration Microseconds
	// Events are sorted by At (ties keep insertion order).
	Events []Event

	// pageStats caches Pages/MaxPage; perPage caches the PageWrites
	// index. Both are write-once-per-generation pointers so concurrent
	// first calls race benignly (each computes the same value).
	pageStats atomic.Pointer[pageStats]
	perPage   atomic.Pointer[map[uint32][]Microseconds]
}

// pageStats is the memoized result of one page-space scan.
type pageStats struct {
	pages   int
	maxPage int
}

// Sort orders events by timestamp in place, preserving the relative
// order of simultaneous events, and invalidates the memoized analysis
// indexes. It uses the Builder's natural merge sort: O(n log r) for
// events in r non-decreasing runs, one allocation-free scan for sorted
// events, and a scratch buffer of at most half the events otherwise.
func (t *Trace) Sort() {
	sortEvents(t.Events)
	t.pageStats.Store(nil)
	t.perPage.Store(nil)
}

// Validate checks internal consistency: sorted events, non-negative
// timestamps, and a duration covering all events.
func (t *Trace) Validate() error {
	var prev Microseconds
	for i, e := range t.Events {
		if e.At < 0 {
			return fmt.Errorf("trace: event %d has negative timestamp %d", i, e.At)
		}
		if e.At < prev {
			return fmt.Errorf("trace: event %d out of order (%d after %d)", i, e.At, prev)
		}
		prev = e.At
	}
	if len(t.Events) > 0 && t.Duration < prev {
		return fmt.Errorf("trace: duration %d shorter than last event %d", t.Duration, prev)
	}
	return nil
}

// stats returns the memoized page-space scan, computing it on first
// use. Distinct pages are counted with a bit vector over [0, MaxPage]
// rather than a map: one allocation per generation instead of one map
// per call.
func (t *Trace) stats() *pageStats {
	if s := t.pageStats.Load(); s != nil {
		return s
	}
	s := &pageStats{maxPage: -1}
	for _, e := range t.Events {
		if int(e.Page) > s.maxPage {
			s.maxPage = int(e.Page)
		}
	}
	if s.maxPage >= 0 {
		seen := make([]uint64, s.maxPage/64+1)
		for _, e := range t.Events {
			w, b := e.Page/64, e.Page%64
			if seen[w]&(1<<b) == 0 {
				seen[w] |= 1 << b
				s.pages++
			}
		}
	}
	t.pageStats.Store(s)
	return s
}

// Pages returns the number of distinct pages written in the trace. The
// result is memoized; repeated calls are allocation-free.
func (t *Trace) Pages() int { return t.stats().pages }

// MaxPage returns the largest page id written, or -1 for an empty
// trace. The result is memoized; repeated calls are allocation-free.
func (t *Trace) MaxPage() int { return t.stats().maxPage }

// PageWrites returns the memoized index of each page's time-ordered
// write timestamps. The map and its slices are shared: callers must
// treat them as read-only. The first call builds the index; repeated
// calls (HalveIntervals and read-skip analysis consume it) are free.
func (t *Trace) PageWrites() map[uint32][]Microseconds {
	if m := t.perPage.Load(); m != nil {
		return *m
	}
	m := make(map[uint32][]Microseconds)
	for _, e := range t.Events {
		m[e.Page] = append(m[e.Page], e.At)
	}
	t.perPage.Store(&m)
	return m
}

// Intervals returns every write interval in the trace in milliseconds:
// for each page, the gaps between consecutive writes, plus the final
// open interval from the last write to the end of the trace (the paper's
// analysis counts the trailing idle time; it is what MEMCON exploits for
// pages written once). Pages are visited in ascending page order, each
// page's intervals in time order with its trailing one last, so the
// slice — and everything downstream of it, e.g. float accumulations in
// the interval experiments — is byte-stable across process runs.
//
// It allocates the exactly-sized result, one int32 page slot per event
// and side arrays over the distinct pages; it neither builds nor needs
// the PageWrites index.
func (t *Trace) Intervals(includeTrailing bool) []float64 {
	// One map lookup per event: slots number the pages in order of
	// their first write, and writes and last hold each slot's write
	// count and latest write time.
	slots := make([]int32, len(t.Events))
	index := make(map[uint32]int32)
	var pages []uint32
	var writes []int
	var last []Microseconds
	for i, e := range t.Events {
		s, ok := index[e.Page]
		if !ok {
			s = int32(len(pages))
			index[e.Page] = s
			pages = append(pages, e.Page)
			writes = append(writes, 0)
			last = append(last, 0)
		}
		slots[i] = s
		writes[s]++
		last[s] = e.At
	}

	// Visit the slots in ascending page order to give each page its
	// output offset: next is where the slot's next interval goes.
	order := make([]int32, len(pages))
	for s := range order {
		order[s] = int32(s)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(pages[a], pages[b]) })
	next := make([]int, len(pages))
	total := 0
	for _, s := range order {
		next[s] = total
		total += writes[s] - 1
		if includeTrailing && t.Duration > last[s] {
			total++
		}
	}
	if total == 0 {
		return nil
	}

	// Fill in event order. A slot's first write is the one at which it
	// equals the count of slots seen so far; every later write closes
	// an interval. last walks each page's writes and ends where it began.
	out := make([]float64, total)
	seen := int32(0)
	for i, s := range slots {
		at := t.Events[i].At
		if s == seen {
			seen++
		} else {
			out[next[s]] = float64(at-last[s]) / float64(Millisecond)
			next[s]++
		}
		last[s] = at
	}
	if includeTrailing {
		for s, at := range last {
			if t.Duration > at {
				out[next[s]] = float64(t.Duration-at) / float64(Millisecond)
			}
		}
	}
	return out
}

// sortedPages returns the map's keys in ascending order; iterating a
// Go map directly would leak the runtime's randomized order into
// results that must be reproducible.
func sortedPages(m map[uint32][]Microseconds) []uint32 {
	pages := make([]uint32, 0, len(m))
	for p := range m {
		pages = append(pages, p)
	}
	slices.Sort(pages)
	return pages
}

// HalveIntervals returns a copy of the trace with every write interval
// halved (the Fig. 19 cache-pressure sensitivity transform): for each
// page, gaps between consecutive writes are scaled by 0.5 while the
// first write time is kept; the duration is also halved so trailing
// intervals shrink proportionally.
func (t *Trace) HalveIntervals() *Trace {
	perPage := t.PageWrites()
	var b Builder
	for _, page := range sortedPages(perPage) {
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
