package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
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

// countingReader counts consumed bytes so decode errors carry the
// offset of the field that failed.
type countingReader struct {
	br *bufio.Reader
	n  int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.br.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

// Stream incrementally decodes a compact (v2) trace: NewStream consumes
// the header, then each Next call decodes one event. Memory use is
// constant regardless of trace size. Stream implements Source.
type Stream struct {
	r     countingReader
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
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	s := &Stream{r: countingReader{br: br}}
	var m uint32
	if err := binary.Read(&s.r, binary.LittleEndian, &m); err != nil {
		return nil, &DecodeError{Event: -1, Offset: 0, Field: "magic", Err: noEOF(err)}
	}
	if m != compactMagic {
		return nil, ErrBadFormat
	}
	nameLen, off, err := s.uvarint()
	if err != nil {
		return nil, &DecodeError{Event: -1, Offset: off, Field: "name length", Err: noEOF(err)}
	}
	if nameLen > 1<<16 {
		return nil, &DecodeError{Event: -1, Offset: off, Field: "name length",
			Err: fmt.Errorf("%w: implausible name length %d", ErrBadFormat, nameLen)}
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(&s.r, name); err != nil {
		return nil, &DecodeError{Event: -1, Offset: off, Field: "name", Err: noEOF(err)}
	}
	s.name = string(name)
	dur, off, err := s.uvarint()
	if err != nil {
		return nil, &DecodeError{Event: -1, Offset: off, Field: "duration", Err: noEOF(err)}
	}
	if dur > math.MaxInt64 {
		return nil, &DecodeError{Event: -1, Offset: off, Field: "duration",
			Err: fmt.Errorf("%w: duration %d overflows the timestamp range", ErrBadFormat, dur)}
	}
	s.dur = Microseconds(dur)
	count, off, err := s.uvarint()
	if err != nil {
		return nil, &DecodeError{Event: -1, Offset: off, Field: "event count", Err: noEOF(err)}
	}
	if count > 1<<32 {
		return nil, &DecodeError{Event: -1, Offset: off, Field: "event count",
			Err: fmt.Errorf("%w: implausible event count %d", ErrBadFormat, count)}
	}
	s.total = count
	return s, nil
}

// uvarint reads one varint, returning the offset of its first byte.
func (s *Stream) uvarint() (v uint64, off int64, err error) {
	off = s.r.n
	v, err = binary.ReadUvarint(&s.r)
	return v, off, err
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
	delta, off, err := s.uvarint()
	if err != nil {
		return Event{}, s.fail(off, "delta", noEOF(err))
	}
	// Reject deltas that would wrap the running timestamp past the
	// int64 range: the wrap would surface as an out-of-order negative
	// timestamp only later, in Validate, far from the corrupt bytes.
	if delta > math.MaxInt64 || Microseconds(delta) > math.MaxInt64-s.prev {
		return Event{}, s.fail(off, "delta",
			fmt.Errorf("%w: delta %d overflows the timestamp at %d", ErrBadFormat, delta, s.prev))
	}
	page, off, err := s.uvarint()
	if err != nil {
		return Event{}, s.fail(off, "page", noEOF(err))
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
	buf     [binary.MaxVarintLen64]byte
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

// Encode appends one event. Events must arrive with non-decreasing,
// non-negative timestamps.
func (e *Encoder) Encode(ev Event) error {
	if e.written >= e.total {
		return fmt.Errorf("trace: encoder declared %d events, got more", e.total)
	}
	if ev.At < e.prev || ev.At < 0 {
		return fmt.Errorf("trace: event at %d out of order (previous %d)", ev.At, e.prev)
	}
	if err := e.uvarint(uint64(ev.At - e.prev)); err != nil {
		return err
	}
	e.prev = ev.At
	if err := e.uvarint(uint64(ev.Page)); err != nil {
		return err
	}
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
