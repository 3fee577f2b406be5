package trace

import (
	"errors"
	"fmt"
	"io"
	"math"

	"memcon/internal/varstream"
)

// Streaming access to the compact (v2) format. A multi-minute bus trace
// at production scale holds hundreds of millions of events — far more
// than a materialized []Event should hold resident. Stream decodes the
// delta/varint encoding incrementally, so replay memory is bounded by
// the consumer's per-page state (O(pages)), not by the event count.

// Source is a forward-only supplier of time-ordered write events plus
// the trace metadata a replay needs to finish. The incremental decoder
// Stream implements it, so the engine replays a compact file without
// materializing its events.
type Source interface {
	// Name labels the workload that produced the events.
	Name() string
	// Duration is the traced execution time; replays flush quanta and
	// pending work up to it after the last event.
	Duration() Microseconds
	// Read decodes the next events in time order into dst and returns
	// how many it decoded. Once the events run out it returns io.EOF,
	// alongside the last ones or alone; a failure returns the events
	// decoded before it alongside the error, which poisons the source.
	// Read returns (0, nil) only for an empty dst.
	Read(dst []Event) (int, error)
}

// ErrBadFormat indicates the reader input is not a compact trace
// stream: a wrong magic (including a file in the retired fixed-width v1
// format, "MCTR") or a structurally invalid field.
var ErrBadFormat = errors.New("trace: bad format")

// Stream incrementally decodes a compact (v2) trace: NewStream consumes
// the header, then Read decodes events in batches, or Next one at a
// time. It decodes through a varstream.Reader, so memory use is
// constant regardless of trace size, and it reads up to one window
// (4 KiB) ahead of the last event it returned. Malformed input fails
// with a positioned *varstream.DecodeError. Stream implements Source.
type Stream struct {
	r    varstream.Reader
	name string
	dur  Microseconds
	prev Microseconds
}

// NewStream opens a compact (v2) stream over r, reading and validating
// the header. The remaining events decode lazily through Read or Next.
func NewStream(r io.Reader) (*Stream, error) {
	s := &Stream{}
	if err := s.r.Open(r, "trace", compactMagic, ErrBadFormat); err != nil {
		return nil, err
	}
	name, err := s.r.String("name length", "name", 1<<16)
	if err != nil {
		return nil, err
	}
	off := s.r.Offset()
	dur, err := s.r.Header("duration", math.MaxUint64)
	if err != nil {
		return nil, err
	}
	if dur > math.MaxInt64 {
		return nil, s.r.Fail(off, "duration",
			fmt.Errorf("%w: duration %d overflows the timestamp range", ErrBadFormat, dur))
	}
	if err := s.r.Count(1 << 32); err != nil {
		return nil, err
	}
	s.name, s.dur = name, Microseconds(dur)
	return s, nil
}

// Name returns the trace name from the header.
func (s *Stream) Name() string { return s.name }

// Duration returns the traced execution time from the header.
func (s *Stream) Duration() Microseconds { return s.dur }

// Events returns the declared event count from the header.
func (s *Stream) Events() uint64 { return s.r.Events() }

// Next decodes and returns the next event. It returns io.EOF after the
// declared count has been delivered; any other error (truncation,
// timestamp overflow, page overflow) is positioned and sticky.
func (s *Stream) Next() (Event, error) {
	if s.r.Done() {
		return Event{}, s.r.Err()
	}
	off := s.r.Begin()
	delta, err := s.r.Uvarint()
	if err != nil {
		return Event{}, s.r.Fail(off, "delta", err)
	}
	// Reject deltas that would wrap the running timestamp past the
	// int64 range: the wrap would surface as an out-of-order negative
	// timestamp only later, in Validate, far from the corrupt bytes.
	if delta > math.MaxInt64 || Microseconds(delta) > math.MaxInt64-s.prev {
		return Event{}, s.r.Fail(off, "delta",
			fmt.Errorf("%w: delta %d overflows the timestamp at %d", ErrBadFormat, delta, s.prev))
	}
	off = s.r.Offset()
	page, err := s.r.Uvarint()
	if err != nil {
		return Event{}, s.r.Fail(off, "page", err)
	}
	if page > math.MaxUint32 {
		return Event{}, s.r.Fail(off, "page",
			fmt.Errorf("%w: page %d overflows uint32", ErrBadFormat, page))
	}
	s.prev += Microseconds(delta)
	return Event{Page: uint32(page), At: s.prev}, nil
}

// shortEventLen is the longest event Read decodes from the window:
// two varints of one or two bytes each.
const shortEventLen = 4

// Read implements Source. It decodes straight from the window every
// event whose fields take one or two bytes each, nearly all of a
// trace's, while shortEventLen bytes are left in the window, and hands
// every other event to Next: one that needs a refill, one with a wider
// field and one whose delta overflows the timestamp. So Next decodes
// every wide field and builds every DecodeError, and Read fails
// exactly where Next would.
func (s *Stream) Read(dst []Event) (int, error) {
	n := 0
	for n < len(dst) && !s.r.Done() {
		win, left := s.r.Window()
		out := dst[n:]
		if uint64(len(out)) > left {
			out = out[:left]
		}
		k, used := s.decodeWindow(out, win)
		s.r.Consume(used, uint64(k))
		n += k
		if n == len(dst) || s.r.Done() {
			break
		}
		ev, err := s.Next()
		if err != nil {
			return n, err
		}
		dst[n] = ev
		n++
	}
	if s.r.Done() {
		return n, s.r.Err()
	}
	return n, nil
}

// decodeWindow decodes events from win into out while shortEventLen
// bytes are left in win, and stops early at an event Next must decode.
// It returns how many events it decoded and how many bytes they took,
// and advances s.prev past them.
func (s *Stream) decodeWindow(out []Event, win []byte) (k, used int) {
	prev := s.prev
	for k < len(out) && len(win)-used >= shortEventLen {
		ev := (*[shortEventLen]byte)(win[used:])
		delta, w := shortUvarint(ev[:])
		// The delta must keep the running timestamp within int64 (prev
		// is never negative).
		if w == 0 || delta > uint64(math.MaxInt64-prev) {
			break
		}
		page, wp := shortUvarint(ev[w:])
		if wp == 0 {
			break
		}
		prev += Microseconds(delta)
		out[k] = Event{Page: uint32(page), At: prev}
		used += w + wp
		k++
	}
	s.prev = prev
	return k, used
}

// shortUvarint decodes a varint of one or two bytes, the widths of
// nearly all of a trace's fields, from b (at least two bytes long). It
// returns a width of 0 for a wider varint, which Next decodes.
func shortUvarint(b []byte) (uint64, int) {
	if b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	if b[1] < 0x80 {
		return uint64(b[0]&0x7f) | uint64(b[1])<<7, 2
	}
	return 0, 0
}
