package trace

import (
	"math"
	"math/bits"
)

// Stable LSD radix sort by timestamp. Keys are At − min(At), taken as
// unsigned so negative timestamps and spans up to 2^64−1 sort correctly;
// each pass is a counting sort on one 11-bit digit (2048 counters, which
// fit in L1), and there are only as many passes as the span needs: a
// generated trace of 77–300 s spans 27–29 bits, so 3. A counting pass
// keeps equal digits in input order, so ties keep insertion order.
const (
	radixBits = 11
	radixSize = 1 << radixBits
)

// timeRange returns the smallest timestamp in src and the number of
// radix passes its span needs, at least one.
func timeRange(src [][]Event) (lo Microseconds, passes int) {
	lo, hi := Microseconds(math.MaxInt64), Microseconds(math.MinInt64)
	for _, blk := range src {
		for _, e := range blk {
			lo, hi = min(lo, e.At), max(hi, e.At)
		}
	}
	return lo, max(1, (bits.Len64(uint64(hi)-uint64(lo))+radixBits-1)/radixBits)
}

// radixPass stably scatters the events of src, concatenated in order,
// into dst by the pass-th 11-bit digit of their key At − lo.
func radixPass(dst []Event, src [][]Event, lo Microseconds, pass int) {
	shift := uint(pass * radixBits)
	var next [radixSize]int
	for _, blk := range src {
		for _, e := range blk {
			next[(uint64(e.At)-uint64(lo))>>shift&(radixSize-1)]++
		}
	}
	sum := 0
	for d, c := range next {
		next[d] = sum
		sum += c
	}
	for _, blk := range src {
		for _, e := range blk {
			d := (uint64(e.At) - uint64(lo)) >> shift & (radixSize - 1)
			dst[next[d]] = e
			next[d]++
		}
	}
}

// radixFinish runs passes [from, passes) back and forth between a and
// b and returns the one holding the sorted events.
func radixFinish(a, b []Event, lo Microseconds, from, passes int) []Event {
	for pass := from; pass < passes; pass++ {
		radixPass(b, [][]Event{a}, lo, pass)
		a, b = b, a
	}
	return a
}

// blockEvents is the Builder's block size: 16 Ki events, 256 KiB.
const blockEvents = 1 << 14

// Builder collects write events in any order and returns them as a
// time-sorted Trace. Events go into fixed-size blocks, so adding never
// copies; Trace sorts them stably by timestamp (ties keep the order in
// which they were added) in linear time.
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
// len(Events) == cap(Events), and empties the Builder. The first radix
// pass moves the events out of the blocks, which are dropped before the
// second buffer is allocated, so at most two copies of the events are
// live at once.
func (b *Builder) Trace(name string, duration Microseconds) *Trace {
	blocks, n := b.blocks, b.n
	b.blocks, b.n = nil, 0
	t := &Trace{Name: name, Duration: duration}
	if n == 0 {
		return t
	}
	lo, passes := timeRange(blocks)
	t.Events = make([]Event, n)
	radixPass(t.Events, blocks, lo, 0)
	// The blocks are unreachable from here on, so allocating the second
	// buffer only now keeps at most two copies of the events live.
	if passes > 1 {
		t.Events = radixFinish(t.Events, make([]Event, n), lo, 1, passes)
	}
	return t
}
