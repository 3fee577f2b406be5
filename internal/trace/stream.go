package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// Streaming access to the compact (v2) format. A multi-minute bus trace
// at production scale holds hundreds of millions of events — far more
// than a materialized []Event should hold resident. Stream decodes the
// delta/varint encoding incrementally, so replay memory is bounded by
// the consumer's per-page state (O(pages)), not by the event count, and
// Encoder writes the same format incrementally for producers in the
// same position.

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

// DecodeError locates a malformed field in a compact stream: the event
// index it belongs to (-1 for header fields) and the byte offset where
// its encoding starts.
type DecodeError struct {
	// Event is the 0-based index of the event being decoded, or -1 when
	// the header failed.
	Event int64
	// Offset is the byte offset of the failing field's first byte.
	Offset int64
	// Field names the field being decoded.
	Field string
	// Err is the underlying cause (ErrBadFormat for structural
	// violations, io.ErrUnexpectedEOF for truncation, ...).
	Err error
}

// Error implements error.
func (e *DecodeError) Error() string {
	if e.Event < 0 {
		return fmt.Sprintf("trace: decoding %s at offset %d: %v", e.Field, e.Offset, e.Err)
	}
	return fmt.Sprintf("trace: decoding event %d %s at offset %d: %v", e.Event, e.Field, e.Offset, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *DecodeError) Unwrap() error { return e.Err }

// windowSize is the Stream's read-ahead window, the size bufio.Reader
// defaults to. A replay pass that opens many streams keeps every
// window resident until a GC cycle runs; a 32 KiB window cost 9 % more
// peak RSS on the trace-replay benchmark (EXPERIMENTS.md, "Decoding
// from a window").
const windowSize = 4096

// maxEmptyReads is how many consecutive (0, nil) reads a refill accepts
// before it fails with io.ErrNoProgress, as bufio.Reader does.
const maxEmptyReads = 100

// errOverflow is binary.ReadUvarint's error for a varint wider than 64
// bits, with the same text; the binary package does not export it.
var errOverflow = errors.New("binary: varint overflows a 64-bit integer")

// Stream incrementally decodes a compact (v2) trace: NewStream consumes
// the header, then each Next call decodes one event. It decodes from a
// fixed window of source bytes, so memory use is constant regardless of
// trace size, and it reads up to one window (4 KiB) ahead of the last
// event it returned. Stream implements Source.
type Stream struct {
	src  io.Reader
	buf  []byte // the window: buf[pos:end] is read but not yet decoded
	pos  int
	end  int
	base int64 // source offset of buf[0]
	rerr error // sticky source error (io.EOF included), due after buf[:end]

	name  string
	dur   Microseconds
	total uint64
	idx   uint64
	prev  Microseconds
	err   error // sticky decode error
}

// NewStream opens a compact (v2) stream over r, reading and validating
// the header. The remaining events decode lazily through Next.
func NewStream(r io.Reader) (*Stream, error) {
	s := &Stream{src: r, buf: make([]byte, windowSize)}
	for s.end < 4 && s.rerr == nil {
		s.fill()
	}
	if s.end < 4 {
		return nil, &DecodeError{Event: -1, Offset: 0, Field: "magic", Err: noEOF(s.rerr)}
	}
	if binary.LittleEndian.Uint32(s.buf) != compactMagic {
		return nil, ErrBadFormat
	}
	s.pos = 4
	off := s.offset()
	nameLen, err := s.uvarint()
	if err != nil {
		return nil, &DecodeError{Event: -1, Offset: off, Field: "name length", Err: err}
	}
	if nameLen > 1<<16 {
		return nil, &DecodeError{Event: -1, Offset: off, Field: "name length",
			Err: fmt.Errorf("%w: implausible name length %d", ErrBadFormat, nameLen)}
	}
	var name strings.Builder
	name.Grow(int(nameLen))
	for name.Len() < int(nameLen) {
		if s.pos == s.end {
			if s.rerr != nil {
				return nil, &DecodeError{Event: -1, Offset: off, Field: "name", Err: noEOF(s.rerr)}
			}
			s.fill()
			continue
		}
		n := min(int(nameLen)-name.Len(), s.end-s.pos)
		name.Write(s.buf[s.pos : s.pos+n])
		s.pos += n
	}
	s.name = name.String()
	off = s.offset()
	dur, err := s.uvarint()
	if err != nil {
		return nil, &DecodeError{Event: -1, Offset: off, Field: "duration", Err: err}
	}
	if dur > math.MaxInt64 {
		return nil, &DecodeError{Event: -1, Offset: off, Field: "duration",
			Err: fmt.Errorf("%w: duration %d overflows the timestamp range", ErrBadFormat, dur)}
	}
	s.dur = Microseconds(dur)
	off = s.offset()
	count, err := s.uvarint()
	if err != nil {
		return nil, &DecodeError{Event: -1, Offset: off, Field: "event count", Err: err}
	}
	if count > 1<<32 {
		return nil, &DecodeError{Event: -1, Offset: off, Field: "event count",
			Err: fmt.Errorf("%w: implausible event count %d", ErrBadFormat, count)}
	}
	s.total = count
	return s, nil
}

// offset is the source offset of the next undecoded byte.
func (s *Stream) offset() int64 { return s.base + int64(s.pos) }

// fill moves the undecoded bytes to the front of the window and reads
// the source once into the space after them, retrying empty reads as
// bufio.Reader does. A source error, io.EOF included, is kept in s.rerr
// and surfaces only when a field needs bytes past the window. Callers
// leave fewer than binary.MaxVarintLen64 bytes undecoded, so the read
// always has room.
func (s *Stream) fill() {
	s.base += int64(s.pos)
	s.end = copy(s.buf, s.buf[s.pos:s.end])
	s.pos = 0
	for range maxEmptyReads {
		n, err := s.src.Read(s.buf[s.end:])
		s.end += n
		if err != nil {
			s.rerr = err
			return
		}
		if n > 0 {
			return
		}
	}
	s.rerr = io.ErrNoProgress
}

// uvarint decodes the varint at the window's start, refilling the
// window while the field runs past its end. The outcomes are
// binary.ReadUvarint's: a field the source ends in (or before) is
// io.ErrUnexpectedEOF, any other source error passes through, and ten
// continuation bytes overflow even when the source ends after them,
// where binary.Uvarint alone reports a short buffer.
func (s *Stream) uvarint() (uint64, error) {
	for {
		if s.pos < s.end {
			if b := s.buf[s.pos]; b < 0x80 {
				s.pos++
				return uint64(b), nil
			}
		}
		v, n := binary.Uvarint(s.buf[s.pos:s.end])
		if n > 0 {
			s.pos += n
			return v, nil
		}
		if n < 0 || s.end-s.pos >= binary.MaxVarintLen64 {
			return 0, errOverflow
		}
		if s.rerr != nil {
			return 0, noEOF(s.rerr)
		}
		s.fill()
	}
}

// noEOF converts a bare io.EOF into io.ErrUnexpectedEOF: inside a
// declared-length stream, running out of bytes is truncation, never a
// clean end.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Name returns the trace name from the header.
func (s *Stream) Name() string { return s.name }

// Duration returns the traced execution time from the header.
func (s *Stream) Duration() Microseconds { return s.dur }

// Events returns the declared event count from the header.
func (s *Stream) Events() uint64 { return s.total }

// Next decodes and returns the next event. It returns io.EOF after the
// declared count has been delivered; any other error (truncation,
// timestamp overflow, page overflow) is positioned and sticky.
func (s *Stream) Next() (Event, error) {
	if s.err != nil {
		return Event{}, s.err
	}
	if s.idx >= s.total {
		return Event{}, io.EOF
	}
	off := s.offset()
	delta, err := s.uvarint()
	if err != nil {
		return Event{}, s.fail(off, "delta", err)
	}
	// Reject deltas that would wrap the running timestamp past the
	// int64 range: the wrap would surface as an out-of-order negative
	// timestamp only later, in Validate, far from the corrupt bytes.
	if delta > math.MaxInt64 || Microseconds(delta) > math.MaxInt64-s.prev {
		return Event{}, s.fail(off, "delta",
			fmt.Errorf("%w: delta %d overflows the timestamp at %d", ErrBadFormat, delta, s.prev))
	}
	off = s.offset()
	page, err := s.uvarint()
	if err != nil {
		return Event{}, s.fail(off, "page", err)
	}
	if page > math.MaxUint32 {
		return Event{}, s.fail(off, "page",
			fmt.Errorf("%w: page %d overflows uint32", ErrBadFormat, page))
	}
	s.prev += Microseconds(delta)
	ev := Event{Page: uint32(page), At: s.prev}
	s.idx++
	return ev, nil
}

// fail records and returns the positioned sticky error.
func (s *Stream) fail(off int64, field string, cause error) error {
	s.err = &DecodeError{Event: int64(s.idx), Offset: off, Field: field, Err: cause}
	return s.err
}

// Encoder writes the compact (v2) format incrementally, for producers
// whose event streams should not be materialized. The event count must
// be known up front — the header carries it — and Close verifies that
// exactly that many events were encoded.
type Encoder struct {
	bw      *bufio.Writer
	total   uint64
	written uint64
	prev    Microseconds
	buf     [2 * binary.MaxVarintLen64]byte // one event's varints
}

// NewEncoder writes the compact header and returns an encoder expecting
// exactly count time-ordered events.
func NewEncoder(w io.Writer, name string, duration Microseconds, count uint64) (*Encoder, error) {
	if duration < 0 {
		return nil, fmt.Errorf("trace: negative duration %d", duration)
	}
	e := &Encoder{bw: bufio.NewWriter(w), total: count}
	if err := binary.Write(e.bw, binary.LittleEndian, compactMagic); err != nil {
		return nil, fmt.Errorf("trace: writing magic: %w", err)
	}
	if err := e.uvarint(uint64(len(name))); err != nil {
		return nil, err
	}
	if _, err := e.bw.WriteString(name); err != nil {
		return nil, err
	}
	if err := e.uvarint(uint64(duration)); err != nil {
		return nil, err
	}
	if err := e.uvarint(count); err != nil {
		return nil, err
	}
	return e, nil
}

// uvarint writes one varint.
func (e *Encoder) uvarint(v uint64) error {
	n := binary.PutUvarint(e.buf[:], v)
	_, err := e.bw.Write(e.buf[:n])
	return err
}

// Encode appends one event, both varints in one buffered write. Events
// must arrive with non-decreasing, non-negative timestamps.
func (e *Encoder) Encode(ev Event) error {
	if e.written >= e.total {
		return fmt.Errorf("trace: encoder declared %d events, got more", e.total)
	}
	if ev.At < e.prev || ev.At < 0 {
		return fmt.Errorf("trace: event at %d out of order (previous %d)", ev.At, e.prev)
	}
	b := binary.AppendUvarint(e.buf[:0], uint64(ev.At-e.prev))
	if _, err := e.bw.Write(binary.AppendUvarint(b, uint64(ev.Page))); err != nil {
		return err
	}
	e.prev = ev.At
	e.written++
	return nil
}

// Close flushes the stream and verifies the declared event count was
// met.
func (e *Encoder) Close() error {
	if e.written != e.total {
		return fmt.Errorf("trace: encoder declared %d events, encoded %d", e.total, e.written)
	}
	return e.bw.Flush()
}
