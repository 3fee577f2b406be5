package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"testing"

	"memcon/internal/varstream"
)

// The reference decoder: the byte-at-a-time compact decoder Stream
// replaced, kept as a test-only oracle. It reads every varint with
// binary.ReadUvarint through a bufio.Reader wrapped in a byte counter,
// so its accept/reject decisions, events and DecodeErrors define what
// Stream must produce.

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

// refStream is the reference decoder's counterpart of Stream.
type refStream struct {
	r     countingReader
	name  string
	dur   Microseconds
	total uint64
	idx   uint64
	prev  Microseconds
	err   error
}

func newRefStream(r io.Reader) (*refStream, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	s := &refStream{r: countingReader{br: br}}
	var m uint32
	if err := binary.Read(&s.r, binary.LittleEndian, &m); err != nil {
		return nil, &varstream.DecodeError{Format: "trace", Event: -1, Offset: 0, Field: "magic", Err: noEOF(err)}
	}
	if m != compactMagic {
		return nil, ErrBadFormat
	}
	nameLen, off, err := s.uvarint()
	if err != nil {
		return nil, &varstream.DecodeError{Format: "trace", Event: -1, Offset: off, Field: "name length", Err: noEOF(err)}
	}
	if nameLen > 1<<16 {
		return nil, &varstream.DecodeError{Format: "trace", Event: -1, Offset: off, Field: "name length",
			Err: fmt.Errorf("%w: implausible name length %d", ErrBadFormat, nameLen)}
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(&s.r, name); err != nil {
		return nil, &varstream.DecodeError{Format: "trace", Event: -1, Offset: off, Field: "name", Err: noEOF(err)}
	}
	s.name = string(name)
	dur, off, err := s.uvarint()
	if err != nil {
		return nil, &varstream.DecodeError{Format: "trace", Event: -1, Offset: off, Field: "duration", Err: noEOF(err)}
	}
	if dur > math.MaxInt64 {
		return nil, &varstream.DecodeError{Format: "trace", Event: -1, Offset: off, Field: "duration",
			Err: fmt.Errorf("%w: duration %d overflows the timestamp range", ErrBadFormat, dur)}
	}
	s.dur = Microseconds(dur)
	count, off, err := s.uvarint()
	if err != nil {
		return nil, &varstream.DecodeError{Format: "trace", Event: -1, Offset: off, Field: "event count", Err: noEOF(err)}
	}
	if count > 1<<32 {
		return nil, &varstream.DecodeError{Format: "trace", Event: -1, Offset: off, Field: "event count",
			Err: fmt.Errorf("%w: implausible event count %d", ErrBadFormat, count)}
	}
	s.total = count
	return s, nil
}

// noEOF converts a bare io.EOF into io.ErrUnexpectedEOF: inside a
// declared-length stream, running out of bytes is truncation.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

func (s *refStream) uvarint() (v uint64, off int64, err error) {
	off = s.r.n
	v, err = binary.ReadUvarint(&s.r)
	return v, off, err
}

func (s *refStream) Name() string           { return s.name }
func (s *refStream) Duration() Microseconds { return s.dur }
func (s *refStream) Events() uint64         { return s.total }

func (s *refStream) Next() (Event, error) {
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

func (s *refStream) fail(off int64, field string, cause error) error {
	s.err = &varstream.DecodeError{Format: "trace", Event: int64(s.idx), Offset: off, Field: field, Err: cause}
	return s.err
}

// eventStream is the surface Stream and refStream share.
type eventStream interface {
	Name() string
	Duration() Microseconds
	Events() uint64
	Next() (Event, error)
}

// decodeOutcome is everything a decoder reports about one input.
type decodeOutcome struct {
	name   string
	dur    Microseconds
	total  uint64
	events []Event
	// err is the failure's text, "" when the input decoded; decodeErr
	// holds the failure's DecodeError fields (Err cleared), when it is
	// one.
	err       string
	decodeErr *varstream.DecodeError
}

// drain opens a decoder (called as drain(NewStream(r))) and records its
// outcome.
func drain(s eventStream, err error) decodeOutcome {
	var o decodeOutcome
	if err == nil {
		o.name, o.dur, o.total = s.Name(), s.Duration(), s.Events()
		for {
			var ev Event
			if ev, err = s.Next(); err != nil {
				break
			}
			o.events = append(o.events, ev)
		}
		if err == io.EOF {
			return o
		}
	}
	o.err = err.Error()
	var de *varstream.DecodeError
	if errors.As(err, &de) {
		fields := *de
		fields.Err = nil
		o.decodeErr = &fields
	}
	return o
}

// errSource is the non-EOF error the test sources end with.
var errSource = errors.New("source failed")

// chunkReader serves data at most chunk bytes per Read, then returns
// tail (io.EOF or a source error) on every later call.
type chunkReader struct {
	data  []byte
	chunk int
	tail  error
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.tail
	}
	n := copy(p[:min(len(p), r.chunk)], r.data)
	r.data = r.data[n:]
	return n, nil
}

// checkAgainstReference decodes raw with Stream and with the reference
// decoder through sources that serve the whole input, 1-byte and
// 3-byte chunks, each ending in io.EOF or a source error, and fails
// unless every pair of outcomes is identical.
func checkAgainstReference(t *testing.T, raw []byte) {
	t.Helper()
	for _, tail := range []error{io.EOF, errSource} {
		for _, chunk := range []int{len(raw) + 1, 1, 3} {
			want := drain(newRefStream(&chunkReader{data: raw, chunk: chunk, tail: tail}))
			got := drain(NewStream(&chunkReader{data: raw, chunk: chunk, tail: tail}))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d-byte chunks ending in %v: Stream and the reference disagree\n"+
					" stream:    %q dur %d count %d, %d events, err %q %+v\n"+
					" reference: %q dur %d count %d, %d events, err %q %+v",
					chunk, tail,
					got.name, got.dur, got.total, len(got.events), got.err, got.decodeErr,
					want.name, want.dur, want.total, len(want.events), want.err, want.decodeErr)
			}
		}
	}
}

// straddleEvents is the event count of each straddleInputs stream.
const straddleEvents = varstream.WindowSize / 3

// straddleInputs returns compact streams two windows long whose first
// refill (at source offset varstream.WindowSize when the source serves the whole
// input) splits a field at every byte position: the events are 6 bytes
// (a 1-byte delta and a 5-byte page), and the name shifts each stream's
// events one byte further against the window's end.
func straddleInputs() [][]byte {
	var out [][]byte
	for shift := range 6 {
		var events []uint64
		for i := range straddleEvents {
			events = append(events, 1, 1<<28+uint64(i))
		}
		out = append(out, buildCompact(string(make([]byte, shift)), 1<<40, straddleEvents, events...))
	}
	return out
}

// tenContinuations is a compact stream whose first delta is ten
// continuation bytes followed by the end of the input: an overflow for
// binary.ReadUvarint, a short buffer for binary.Uvarint.
func tenContinuations() []byte {
	raw := buildCompact("t", 100, 1)
	for range binary.MaxVarintLen64 {
		raw = append(raw, 0x80)
	}
	return raw
}

// TestStreamMatchesReference is the differential table: Stream must
// agree with the reference decoder on accept/reject, on every event
// and on the whole DecodeError, through every source shape.
func TestStreamMatchesReference(t *testing.T) {
	valid := buildCompact("t", 100, 2, 5, 1, 10, 2)
	long := string(make([]byte, varstream.WindowSize+904)) // a name wider than the window
	cases := map[string][]byte{
		"valid":                     valid,
		"empty trace":               buildCompact("", 0, 0),
		"trailing bytes":            append(buildCompact("t", 100, 1, 5, 1), 0xff, 0xff),
		"no input":                  nil,
		"truncated magic":           valid[:3],
		"wrong magic":               []byte("MCTR\x00\x00\x00"),
		"truncated name":            valid[:5],
		"truncated duration":        valid[:6],
		"truncated mid-event":       valid[:len(valid)-1],
		"truncated before events":   buildCompact("t", 100, 2),
		"implausible name length":   buildCompact(string(make([]byte, 1<<16+1)), 0, 0),
		"implausible event count":   buildCompact("t", 100, 1<<33),
		"duration overflows int64":  buildCompact("t", math.MaxUint64, 0),
		"delta overflows int64":     buildCompact("t", 100, 1, math.MaxUint64, 0),
		"timestamp overflows":       buildCompact("t", 100, 2, math.MaxInt64-1, 0, 2, 0),
		"page overflows uint32":     buildCompact("t", 100, 1, 0, 1<<33),
		"ten continuation bytes":    tenContinuations(),
		"ten continuations + more":  append(tenContinuations(), 0x01, 0x00),
		"tenth byte overflows":      append(buildCompact("t", 100, 1), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02, 0x00),
		"largest varint":            buildCompact("t", 100, 1, 0, math.MaxUint64),
		"name wider than window":    buildCompact(long, 7, 1, 3, 4),
		"truncated wide name":       buildCompact(long, 7, 1, 3, 4)[:varstream.WindowSize+100],
		"overlong name length":      append([]byte("CTCM"), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80),
		"overlong duration":         append(buildCompact("t", 0, 0)[:6], 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
		"non-minimal varints":       append(buildCompact("t", 100, 1), 0x85, 0x00, 0x81, 0x80, 0x00),
		"truncated straddling page": straddleInputs()[2][:varstream.WindowSize+2],
	}
	for i, raw := range straddleInputs() {
		cases[fmt.Sprintf("straddle shift %d", i)] = raw
		// A delta of ten continuation bytes, then EOF, starting 5 to 10
		// bytes before the window's end.
		header := len(raw) - 6*straddleEvents
		over := slices.Clone(raw[:header+(varstream.WindowSize-5-header)/6*6])
		for range binary.MaxVarintLen64 {
			over = append(over, 0x80)
		}
		cases[fmt.Sprintf("straddling overflow shift %d", i)] = over
	}
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) { checkAgainstReference(t, cases[name]) })
	}
}
