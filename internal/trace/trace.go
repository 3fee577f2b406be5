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
type Trace struct {
	// Name labels the workload that produced the trace.
	Name string
	// Duration is the traced execution time; it is at least the last
	// event timestamp.
	Duration Microseconds
	// Events are sorted by At (ties keep insertion order).
	Events []Event
}

// Sort orders events by timestamp in place, preserving the relative
// order of simultaneous events. It uses the Builder's natural merge
// sort: O(n log r) for events in r non-decreasing runs, one
// allocation-free scan for sorted events, and a scratch buffer of at
// most half the events otherwise.
func (t *Trace) Sort() { sortEvents(t.Events) }

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

// Pages returns the number of distinct pages written in the trace,
// counted with a bit vector over [0, MaxPage].
func (t *Trace) Pages() int {
	seen := make([]uint64, t.MaxPage()/64+1)
	pages := 0
	for _, e := range t.Events {
		w, b := e.Page/64, e.Page%64
		if seen[w]&(1<<b) == 0 {
			seen[w] |= 1 << b
			pages++
		}
	}
	return pages
}

// MaxPage returns the largest page id written, or -1 for an empty
// trace.
func (t *Trace) MaxPage() int {
	top := -1
	for _, e := range t.Events {
		top = max(top, int(e.Page))
	}
	return top
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
// and side arrays over the distinct pages.
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

// IntervalSink computes write intervals, with Intervals' arithmetic,
// from writes that arrive page after page, each page's in time order,
// as a generator emits them. It calls Fn with each gap when the write
// that closes it arrives and, when Trailing is set, with a page's open
// interval to End when the next page starts or at Close. The intervals
// come in the order Intervals returns them when the pages arrive in
// ascending order.
type IntervalSink struct {
	Fn       func(ms float64)
	Trailing bool
	End      Microseconds
	// open is true once a write has arrived; page and last are the
	// current page and its latest write time.
	open bool
	page uint32
	last Microseconds
}

// Add takes the next write.
func (s *IntervalSink) Add(page uint32, at Microseconds) {
	if s.open && page == s.page {
		s.Fn(float64(at-s.last) / float64(Millisecond))
	} else {
		s.Close()
		s.open, s.page = true, page
	}
	s.last = at
}

// Close emits the last page's trailing interval, if any; it is called
// once, after the last Add.
func (s *IntervalSink) Close() {
	if s.open && s.Trailing && s.End > s.last {
		s.Fn(float64(s.End-s.last) / float64(Millisecond))
	}
}
