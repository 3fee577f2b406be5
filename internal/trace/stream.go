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
	// Next returns the next event in time order; io.EOF ends the
	// stream. Any other error poisons the source.
	Next() (Event, error)
}

// ErrBadFormat indicates the reader input is not a compact trace
// stream: a wrong magic (including a file in the retired fixed-width v1
// format, "MCTR") or a structurally invalid field.
var ErrBadFormat = errors.New("trace: bad format")

// Stream incrementally decodes a compact (v2) trace: NewStream consumes
// the header, then each Next call decodes one event. It decodes through
// a varstream.Reader, so memory use is constant regardless of trace
// size, and it reads up to one window (4 KiB) ahead of the last event
// it returned. Malformed input fails with a positioned
// *varstream.DecodeError. Stream implements Source.
type Stream struct {
	r    varstream.Reader
	name string
	dur  Microseconds
	prev Microseconds
}

// NewStream opens a compact (v2) stream over r, reading and validating
// the header. The remaining events decode lazily through Next.
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
