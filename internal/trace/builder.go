package trace

import (
	"math/bits"
	"sort"
)

// sortEvents stably sorts events by timestamp in place with a natural
// merge sort. One scan splits the input into its maximal
// non-decreasing runs, and adjacent runs merge in powersort's order:
// each boundary between two runs gets a power from the runs' midpoints,
// and the pending runs' powers increase up the stack, which bounds any
// input at O(n log n) and input of r runs at O(n log r). Every
// producer adds one page's writes in time order after another's, so a
// generated trace is a few long runs (its hot pages) and a hundred or
// so short ones, and sorts in about one sequential pass. Sorted input
// is one scan with no allocation.
func sortEvents(events []Event) {
	n := len(events)
	// runs[:top] are the pending runs, by start offset; each ends where
	// the next starts, and the last at lo. A run's power is that of the
	// boundary after it; powers strictly increase up the stack and none
	// exceeds bits.Len(n)+1, so 64 entries hold any slice of Events.
	var runs [64]struct{ start, power int }
	top := 0
	var buf []Event
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && events[hi-1].At <= events[hi].At {
			hi++
		}
		if top > 0 {
			p := nodePower(runs[top-1].start, lo, hi, n)
			for top > 1 && runs[top-2].power > p {
				s := runs[top-2].start
				buf = merge(events[s:lo], runs[top-1].start-s, buf)
				top--
			}
			runs[top-1].power = p
		}
		runs[top].start = lo
		top++
		lo = hi
	}
	for ; top > 1; top-- {
		s := runs[top-2].start
		buf = merge(events[s:], runs[top-1].start-s, buf)
	}
}

// nodePower is powersort's power of the boundary between the adjacent
// runs [s1, s2) and [s2, e2) of an n-event input: one plus the number
// of leading bits on which the runs' midpoints, as fractions of n,
// agree. Both fractions are below 1, so the 64-bit quotients are exact
// prefixes of their binary expansions.
func nodePower(s1, s2, e2, n int) int {
	a, _ := bits.Div64(uint64(s1+s2), 0, uint64(2*n))
	b, _ := bits.Div64(uint64(s2+e2), 0, uint64(2*n))
	return bits.LeadingZeros64(a^b) + 1
}

// merge stably merges the sorted runs events[:mid] and events[mid:]
// and returns the scratch buffer for reuse. Events already in place
// stay untouched: the left run's head up to the right run's first
// timestamp, and the right run's tail from the left run's last. Only
// the shorter of the remaining sides is copied into buf; when buf is
// too small it is replaced by one twice as large, or as large as this
// merge can need. On equal timestamps the left run's event comes first.
func merge(events []Event, mid int, buf []Event) []Event {
	if events[mid-1].At <= events[mid].At {
		return buf
	}
	first, last := events[mid].At, events[mid-1].At
	lo := sort.Search(mid, func(i int) bool { return events[i].At > first })
	hi := mid + sort.Search(len(events)-mid, func(i int) bool { return events[mid+i].At >= last })
	if need := min(mid-lo, hi-mid); need > cap(buf) {
		buf = make([]Event, min(max(need, 2*cap(buf)), len(events)/2))
	}

	if mid-lo <= hi-mid {
		// Forward: every right event sorts before the left's last, so
		// the right side runs out first.
		left := buf[:copy(buf, events[lo:mid])]
		i, j, k := 0, mid, lo
		for j < hi {
			if events[j].At < left[i].At {
				events[k] = events[j]
				j++
			} else {
				events[k] = left[i]
				i++
			}
			k++
		}
		copy(events[k:], left[i:])
		return buf
	}
	// Backward: every left event sorts after the right's first, so the
	// left side runs out first.
	right := buf[:copy(buf, events[mid:hi])]
	i, j, k := mid-1, len(right)-1, hi-1
	for i >= lo {
		if events[i].At > right[j].At {
			events[k] = events[i]
			i--
		} else {
			events[k] = right[j]
			j--
		}
		k--
	}
	copy(events[lo:], right[:j+1])
	return buf
}

// blockEvents is the Builder's block size: 16 Ki events, 256 KiB.
const blockEvents = 1 << 14

// Builder collects write events in any order and returns them as a
// time-sorted Trace. Events go into fixed-size blocks, so adding never
// copies; Trace sorts them stably by timestamp (ties keep the order in
// which they were added) with a natural merge sort, in O(n log r) time
// for events that arrive as r non-decreasing runs. Producers that add
// each page's writes in time order, page after page, make few runs.
//
// The zero value is ready to use, and a Builder is empty again after
// Trace.
type Builder struct {
	blocks [][]Event
	n      int
}

// Add records a write to page at time at.
func (b *Builder) Add(page uint32, at Microseconds) {
	if len(b.blocks) == 0 || len(b.blocks[len(b.blocks)-1]) == blockEvents {
		b.blocks = append(b.blocks, make([]Event, 0, blockEvents))
	}
	last := &b.blocks[len(b.blocks)-1]
	*last = append(*last, Event{Page: page, At: at})
	b.n++
}

// Trace returns the added events as a trace sorted by timestamp, with
// len(Events) == cap(Events), and empties the Builder. The events are
// copied out of the blocks into the returned slice and sorted there;
// the blocks are unreachable before the merge scratch is allocated, so
// at most two copies of the events are live at once.
func (b *Builder) Trace(name string, duration Microseconds) *Trace {
	blocks, n := b.blocks, b.n
	b.blocks, b.n = nil, 0
	t := &Trace{Name: name, Duration: duration}
	if n == 0 {
		return t
	}
	t.Events = make([]Event, 0, n)
	for _, blk := range blocks {
		t.Events = append(t.Events, blk...)
	}
	sortEvents(t.Events)
	return t
}
