package fleet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"memcon/internal/varstream"
)

// buildCELog hand-assembles a CE log from raw header fields and
// pre-encoded event varints, so tests can express malformed inputs
// WriteLog refuses to produce.
func buildCELog(modules, epochs, epochNs, count uint64, events ...uint64) []byte {
	var b bytes.Buffer
	binary.Write(&b, binary.LittleEndian, uint32(celogMagic))
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		b.Write(tmp[:n])
	}
	put(modules)
	put(epochs)
	put(epochNs)
	put(count)
	for _, v := range events {
		put(v)
	}
	return b.Bytes()
}

// sampleLog covers the encoding's interesting shapes: module changes
// (timestamp goes absolute), repeated timestamps within a module, and
// rank/bank diversity.
func sampleLog() *Log {
	return &Log{
		Modules: 4, Epochs: 3, EpochNs: 1000,
		Events: []Event{
			{Module: 0, At: 1000, Rank: 0, Bank: 1, Row: 7, Col: 42},
			{Module: 0, At: 1000, Rank: 0, Bank: 1, Row: 7, Col: 43},
			{Module: 0, At: 3000, Rank: 1, Bank: 0, Row: 2, Col: 5},
			{Module: 2, At: 2000, Rank: 0, Bank: 3, Row: 1023, Col: 263},
			{Module: 3, At: 1000, Rank: 0, Bank: 0, Row: 0, Col: 0},
		},
	}
}

// encodeCELog encodes through WriteLog and returns the bytes.
func encodeCELog(t *testing.T, log *Log) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteLog(&b, log); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestCELogRoundTrip(t *testing.T) {
	want := sampleLog()
	raw := encodeCELog(t, want)

	got, err := ReadLog(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.Modules != want.Modules || got.Epochs != want.Epochs || got.EpochNs != want.EpochNs {
		t.Fatalf("header = (%d, %d, %d), want (%d, %d, %d)",
			got.Modules, got.Epochs, got.EpochNs, want.Modules, want.Epochs, want.EpochNs)
	}
	if got.Info != nil {
		t.Fatalf("ReadLog materialized Info = %v, want nil (ground truth is not serialized)", got.Info)
	}
	if len(got.Events) != len(want.Events) {
		t.Fatalf("decoded %d events, want %d", len(got.Events), len(want.Events))
	}
	for i := range got.Events {
		if got.Events[i] != want.Events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got.Events[i], want.Events[i])
		}
	}
}

func TestLogStreamMatchesReadLog(t *testing.T) {
	raw := encodeCELog(t, sampleLog())

	got, err := ReadLog(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewLogStream(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if s.Modules() != got.Modules || s.Epochs() != got.Epochs ||
		s.EpochNs() != got.EpochNs || s.Events() != uint64(len(got.Events)) {
		t.Fatalf("stream header = (%d, %d, %d, %d)", s.Modules(), s.Epochs(), s.EpochNs(), s.Events())
	}
	for i := range got.Events {
		ev, err := s.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if ev != got.Events[i] {
			t.Fatalf("event %d: stream %+v != materialized %+v", i, ev, got.Events[i])
		}
	}
	// Next after the declared count keeps returning io.EOF.
	for i := 0; i < 2; i++ {
		if _, err := s.Next(); err != io.EOF {
			t.Fatalf("Next after end = %v, want io.EOF", err)
		}
	}
}

// TestCELogDecodeErrors is the truncation/overflow table test: every
// malformed input must fail with a positioned DecodeError naming the
// failing event, never decode silently or report a clean end.
func TestCELogDecodeErrors(t *testing.T) {
	// Two events of module 0: at 1000 (r0 b1 row7 col42), at 3000.
	valid := buildCELog(2, 3, 1000, 2,
		0, 1000, 0, 1, 7, 42,
		0, 2000, 1, 0, 2, 5)
	cases := []struct {
		name      string
		input     []byte
		wantEvent int64 // expected DecodeError.Event
		wantIs    error // expected errors.Is target
	}{
		{
			name:      "module delta overflows uint32",
			input:     buildCELog(2, 1, 1000, 1, math.MaxUint64),
			wantEvent: 0,
			wantIs:    ErrBadLog,
		},
		{
			name:      "module outside declared fleet",
			input:     buildCELog(2, 1, 1000, 1, 2, 0, 0, 0, 0, 0),
			wantEvent: 0,
			wantIs:    ErrBadLog,
		},
		{
			name:      "timestamp overflows int64",
			input:     buildCELog(1, 1, 1000, 1, 0, math.MaxUint64),
			wantEvent: 0,
			wantIs:    ErrBadLog,
		},
		{
			name: "running timestamp overflows",
			// First event lands at MaxInt64-1; the second delta of 2
			// would wrap negative.
			input: buildCELog(1, 1, 1000, 2,
				0, math.MaxInt64-1, 0, 0, 0, 0,
				0, 2, 0, 0, 0, 0),
			wantEvent: 1,
			wantIs:    ErrBadLog,
		},
		{
			name:      "rank overflows uint8",
			input:     buildCELog(1, 1, 1000, 1, 0, 5, 256, 0, 0, 0),
			wantEvent: 0,
			wantIs:    ErrBadLog,
		},
		{
			name:      "bank overflows uint8",
			input:     buildCELog(1, 1, 1000, 1, 0, 5, 0, 256, 0, 0),
			wantEvent: 0,
			wantIs:    ErrBadLog,
		},
		{
			name:      "row overflows uint32",
			input:     buildCELog(1, 1, 1000, 1, 0, 5, 0, 0, 1<<33, 0),
			wantEvent: 0,
			wantIs:    ErrBadLog,
		},
		{
			name:      "col overflows uint32",
			input:     buildCELog(1, 1, 1000, 1, 0, 5, 0, 0, 1, 1<<33),
			wantEvent: 0,
			wantIs:    ErrBadLog,
		},
		{
			name:      "truncated mid-event",
			input:     valid[:len(valid)-1],
			wantEvent: 1,
			wantIs:    io.ErrUnexpectedEOF,
		},
		{
			name:      "truncated before events",
			input:     buildCELog(2, 3, 1000, 2),
			wantEvent: 0,
			wantIs:    io.ErrUnexpectedEOF,
		},
		{
			name:      "truncated header",
			input:     valid[:5],
			wantEvent: -1,
			wantIs:    io.ErrUnexpectedEOF,
		},
		{
			name:      "implausible module count",
			input:     buildCELog(1<<33, 1, 1000, 0),
			wantEvent: -1,
			wantIs:    ErrBadLog,
		},
		{
			name:      "implausible event count",
			input:     buildCELog(1, 1, 1000, 1<<41),
			wantEvent: -1,
			wantIs:    ErrBadLog,
		},
		{
			name:      "epoch duration overflows int64",
			input:     buildCELog(1, 1, math.MaxUint64, 0),
			wantEvent: -1,
			wantIs:    ErrBadLog,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadLog(bytes.NewReader(tc.input))
			if err == nil {
				t.Fatal("ReadLog accepted malformed input")
			}
			var de *varstream.DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("error %v (%T) is not a *DecodeError", err, err)
			}
			if de.Event != tc.wantEvent {
				t.Errorf("DecodeError.Event = %d, want %d (err: %v)", de.Event, tc.wantEvent, err)
			}
			if de.Offset <= 0 {
				t.Errorf("DecodeError.Offset = %d, want positive (err: %v)", de.Offset, err)
			}
			if !errors.Is(err, tc.wantIs) {
				t.Errorf("errors.Is(%v, %v) = false", err, tc.wantIs)
			}
			if !strings.Contains(err.Error(), "offset") {
				t.Errorf("error %q does not mention the offset", err)
			}
			// The streaming path must reject the same input, and the
			// error must be sticky.
			if s, serr := NewLogStream(bytes.NewReader(tc.input)); serr == nil {
				var first error
				for {
					_, nerr := s.Next()
					if nerr != nil {
						first = nerr
						break
					}
				}
				if first == io.EOF {
					t.Fatal("stream path decoded malformed input cleanly")
				}
				if _, again := s.Next(); !errors.Is(again, first) {
					t.Errorf("decode error is not sticky: %v then %v", first, again)
				}
			} else if tc.wantEvent >= 0 {
				t.Errorf("header rejected (%v) but materializing path failed on event %d", serr, tc.wantEvent)
			}
		})
	}

	if _, err := ReadLog(bytes.NewReader([]byte("not a CE log"))); !errors.Is(err, ErrBadLog) {
		t.Fatalf("bad magic = %v, want ErrBadLog", err)
	}
}

// TestWriteLogRejectsMisuse: WriteLog refuses negative header fields
// and events out of canonical order, and accepts an earlier timestamp
// after a module change, where the timestamp goes absolute.
func TestWriteLogRejectsMisuse(t *testing.T) {
	ev := func(module uint32, at int64) Event { return Event{Module: module, At: at} }
	for name, bad := range map[string]*Log{
		"negative module count":   {Modules: -1},
		"negative epoch duration": {EpochNs: -1},
		"negative timestamp":      {Modules: 4, Events: []Event{ev(1, -5)}},
		"timestamp out of order":  {Modules: 4, Events: []Event{ev(1, 2000), ev(1, 1000)}},
		"module out of order":     {Modules: 4, Events: []Event{ev(1, 2000), ev(0, 5000)}},
	} {
		if err := WriteLog(io.Discard, bad); err == nil {
			t.Errorf("%s: WriteLog accepted the log", name)
		}
	}
	good := &Log{Modules: 4, Epochs: 3, EpochNs: 1000, Events: []Event{ev(1, 2000), ev(2, 1000)}}
	if err := WriteLog(io.Discard, good); err != nil {
		t.Errorf("WriteLog rejected a module change with an earlier timestamp: %v", err)
	}
}

// FuzzCELog checks LogStream against the reference decoder on
// arbitrary bytes and source shapes (checkAgainstReference), then checks
// that an accepted input round-trips through WriteLog to a canonical
// fixed point.
func FuzzCELog(f *testing.F) {
	var seedBuf bytes.Buffer
	if err := WriteLog(&seedBuf, sampleLog()); err != nil {
		f.Fatal(err)
	}
	f.Add(seedBuf.Bytes())
	f.Add(buildCELog(0, 0, 0, 0))
	f.Add(buildCELog(1, 1, 1000, 1, 0, math.MaxInt64, 0, 0, 0, 0))
	f.Add([]byte("FCE1 garbage"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkAgainstReference(t, raw)
		log, err := ReadLog(bytes.NewReader(raw))
		if err != nil {
			return
		}
		// Re-encoding the decoded log and decoding again must
		// round-trip losslessly, and the re-encode must be a canonical
		// fixed point: encode(decode(encode(x))) == encode(x). (A plain
		// byte-compare against raw would be too strong — the decoder
		// tolerates non-minimal varints the canonical encoder never
		// emits.)
		first := encodeCELog(t, log)
		again, err := ReadLog(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-encoded log failed to decode: %v", err)
		}
		if again.Modules != log.Modules || again.Epochs != log.Epochs ||
			again.EpochNs != log.EpochNs || len(again.Events) != len(log.Events) {
			t.Fatalf("round-trip changed the log header: %+v vs %+v", again, log)
		}
		for i := range again.Events {
			if again.Events[i] != log.Events[i] {
				t.Fatalf("round-trip changed event %d: %+v != %+v", i, again.Events[i], log.Events[i])
			}
		}
		if second := encodeCELog(t, again); !bytes.Equal(first, second) {
			t.Fatalf("re-encode is not a fixed point:\n first  %x\n second %x", first, second)
		}
	})
}

// stallReader serves data one byte per Read, each after stall empty
// (0, nil) reads, then returns (0, nil) a bounded number of times and
// then an error of its own, so a decoder that spins fails the test
// rather than hanging it.
type stallReader struct {
	data  []byte
	stall int
	run   int // consecutive empty reads served
}

func (r *stallReader) Read(p []byte) (int, error) {
	if len(r.data) > 0 && r.run >= r.stall {
		r.run = 0
		p[0], r.data = r.data[0], r.data[1:]
		return 1, nil
	}
	r.run++
	if r.run > 10*varstream.MaxEmptyReads {
		return 0, errors.New("stallReader: decoder kept reading")
	}
	return 0, nil
}

// TestLogStreamNoProgress: a source that stops making progress fails
// the field being read with io.ErrNoProgress after exactly
// varstream.MaxEmptyReads empty reads, and is not reported as
// truncation; fewer empty reads in a row are waited out.
func TestLogStreamNoProgress(t *testing.T) {
	raw := encodeCELog(t, sampleLog())
	want, err := ReadLog(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadLog(&stallReader{data: raw, stall: varstream.MaxEmptyReads - 1})
	if err != nil {
		t.Fatalf("%d empty reads before each byte: %v", varstream.MaxEmptyReads-1, err)
	}
	if !slices.Equal(got.Events, want.Events) {
		t.Fatalf("stalling source decoded %v, want %v", got.Events, want.Events)
	}
	// Stall before the magic, inside it, before the module count,
	// inside the 2-byte epoch duration, and inside the first event's
	// 2-byte timestamp.
	for _, cut := range []int{0, 2, 4, 7, 11} {
		r := &stallReader{data: raw[:cut]}
		_, err := ReadLog(r)
		var de *varstream.DecodeError
		if !errors.As(err, &de) || !errors.Is(err, io.ErrNoProgress) {
			t.Errorf("cut at %d: err = %v, want a DecodeError caused by io.ErrNoProgress", cut, err)
			continue
		}
		if de.Offset > int64(cut) {
			t.Errorf("cut at %d: error at offset %d, past the bytes served", cut, de.Offset)
		}
		if r.run != varstream.MaxEmptyReads {
			t.Errorf("cut at %d: failed after %d empty reads, want %d", cut, r.run, varstream.MaxEmptyReads)
		}
	}
}

// TestCELogAllocs pins the codec's allocation contract: WriteLog
// allocates the varint writer, which holds its buffer, and
// NewLogStream plus a drain allocates the LogStream and its window,
// whatever the log's length; Next allocates nothing.
func TestCELogAllocs(t *testing.T) {
	var raw []byte
	for _, n := range []int{0, 10, 5000} {
		log := &Log{Modules: 4, Epochs: 3, EpochNs: 1000}
		for i := range n {
			log.Events = append(log.Events, Event{
				Module: uint32(i * 4 / n), At: int64(i) * 37,
				Rank: uint8(i % 2), Bank: uint8(i % 8), Row: uint32(i), Col: uint32(i % 1024)})
		}
		if a := testing.AllocsPerRun(20, func() {
			if err := WriteLog(io.Discard, log); err != nil {
				t.Fatal(err)
			}
		}); a > 1 {
			t.Errorf("WriteLog of %d events allocates %.1f times, want at most 1", n, a)
		}
		raw = encodeCELog(t, log)
		rd := bytes.NewReader(nil)
		if a := testing.AllocsPerRun(20, func() {
			rd.Reset(raw)
			s, err := NewLogStream(rd)
			if err != nil {
				t.Fatal(err)
			}
			for {
				if _, err := s.Next(); err == io.EOF {
					return
				} else if err != nil {
					t.Fatal(err)
				}
			}
		}); a > 2 {
			t.Errorf("NewLogStream plus a drain of %d events allocates %.1f times, want at most 2", n, a)
		}
	}
	s, err := NewLogStream(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(1000, func() {
		if _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Next allocates %.1f times per event, want 0", a)
	}
}

// The reference decoder: the byte-at-a-time CE log decoder LogStream
// replaced, kept as a test-only oracle. It reads every varint with
// binary.ReadUvarint through a bufio.Reader wrapped in a byte counter,
// so its accept/reject decisions, events and DecodeErrors define what
// LogStream must produce.

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

// noEOF converts a bare io.EOF into io.ErrUnexpectedEOF: inside a
// declared-length stream, running out of bytes is truncation.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// refLogStream is the reference decoder's counterpart of LogStream.
type refLogStream struct {
	r       countingReader
	modules int
	epochs  int
	epochNs int64
	total   uint64
	idx     uint64
	prevMod uint32
	prevAt  int64
	err     error
}

func newRefLogStream(r io.Reader) (*refLogStream, error) {
	s := &refLogStream{r: countingReader{br: bufio.NewReader(r)}}
	var m uint32
	if err := binary.Read(&s.r, binary.LittleEndian, &m); err != nil {
		return nil, &varstream.DecodeError{Format: "fleet", Event: -1, Offset: 0, Field: "magic", Err: noEOF(err)}
	}
	if m != celogMagic {
		return nil, ErrBadLog
	}
	hdr := func(field string, max uint64) (uint64, error) {
		v, off, err := s.uvarint()
		if err != nil {
			return 0, &varstream.DecodeError{Format: "fleet", Event: -1, Offset: off, Field: field, Err: noEOF(err)}
		}
		if v > max {
			return 0, &varstream.DecodeError{Format: "fleet", Event: -1, Offset: off, Field: field,
				Err: fmt.Errorf("%w: implausible %s %d", ErrBadLog, field, v)}
		}
		return v, nil
	}
	modules, err := hdr("module count", 1<<32)
	if err != nil {
		return nil, err
	}
	epochs, err := hdr("epoch count", 1<<32)
	if err != nil {
		return nil, err
	}
	epochNs, err := hdr("epoch duration", math.MaxInt64)
	if err != nil {
		return nil, err
	}
	count, err := hdr("event count", 1<<40)
	if err != nil {
		return nil, err
	}
	s.modules, s.epochs, s.epochNs, s.total = int(modules), int(epochs), int64(epochNs), count
	return s, nil
}

func (s *refLogStream) uvarint() (v uint64, off int64, err error) {
	off = s.r.n
	v, err = binary.ReadUvarint(&s.r)
	return v, off, err
}

func (s *refLogStream) Modules() int   { return s.modules }
func (s *refLogStream) Epochs() int    { return s.epochs }
func (s *refLogStream) EpochNs() int64 { return s.epochNs }
func (s *refLogStream) Events() uint64 { return s.total }

func (s *refLogStream) Next() (Event, error) {
	if s.err != nil {
		return Event{}, s.err
	}
	if s.idx >= s.total {
		return Event{}, io.EOF
	}
	modDelta, off, err := s.uvarint()
	if err != nil {
		return Event{}, s.fail(off, "module delta", noEOF(err))
	}
	if modDelta > uint64(math.MaxUint32)-uint64(s.prevMod) {
		return Event{}, s.fail(off, "module delta",
			fmt.Errorf("%w: module delta %d overflows uint32 at module %d", ErrBadLog, modDelta, s.prevMod))
	}
	mod := s.prevMod + uint32(modDelta)
	if s.modules > 0 && uint64(mod) >= uint64(s.modules) {
		return Event{}, s.fail(off, "module delta",
			fmt.Errorf("%w: module %d outside declared fleet of %d", ErrBadLog, mod, s.modules))
	}
	if modDelta > 0 {
		s.prevAt = 0
	}
	at, off, err := s.uvarint()
	if err != nil {
		return Event{}, s.fail(off, "timestamp", noEOF(err))
	}
	if at > math.MaxInt64 || int64(at) > math.MaxInt64-s.prevAt {
		return Event{}, s.fail(off, "timestamp",
			fmt.Errorf("%w: delta %d overflows the timestamp at %d", ErrBadLog, at, s.prevAt))
	}
	s.prevMod = mod
	s.prevAt += int64(at)
	ev := Event{Module: mod, At: s.prevAt}
	field := func(name string, max uint64) (uint64, bool) {
		v, off, err := s.uvarint()
		if err != nil {
			s.fail(off, name, noEOF(err))
			return 0, false
		}
		if v > max {
			s.fail(off, name, fmt.Errorf("%w: %s %d overflows", ErrBadLog, name, v))
			return 0, false
		}
		return v, true
	}
	rank, ok := field("rank", math.MaxUint8)
	if !ok {
		return Event{}, s.err
	}
	bank, ok := field("bank", math.MaxUint8)
	if !ok {
		return Event{}, s.err
	}
	row, ok := field("row", math.MaxUint32)
	if !ok {
		return Event{}, s.err
	}
	col, ok := field("col", math.MaxUint32)
	if !ok {
		return Event{}, s.err
	}
	ev.Rank, ev.Bank, ev.Row, ev.Col = uint8(rank), uint8(bank), uint32(row), uint32(col)
	s.idx++
	return ev, nil
}

func (s *refLogStream) fail(off int64, field string, cause error) error {
	s.err = &varstream.DecodeError{Format: "fleet", Event: int64(s.idx), Offset: off, Field: field, Err: cause}
	return s.err
}

// logStream is the surface LogStream and refLogStream share.
type logStream interface {
	Modules() int
	Epochs() int
	EpochNs() int64
	Events() uint64
	Next() (Event, error)
}

// decodeOutcome is everything a decoder reports about one input.
type decodeOutcome struct {
	modules, epochs int
	epochNs         int64
	total           uint64
	events          []Event
	// err is the failure's text, "" when the input decoded; decodeErr
	// holds the failure's DecodeError fields (Err cleared), when it is
	// one.
	err       string
	decodeErr *varstream.DecodeError
}

// drain opens a decoder (called as drain(NewLogStream(r))) and records
// its outcome.
func drain(s logStream, err error) decodeOutcome {
	var o decodeOutcome
	if err == nil {
		o.modules, o.epochs, o.epochNs, o.total = s.Modules(), s.Epochs(), s.EpochNs(), s.Events()
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

// checkAgainstReference decodes raw with LogStream and with the
// reference decoder through sources that serve the whole input, 1-byte
// and 3-byte chunks, each ending in io.EOF or a source error, and fails
// unless every pair of outcomes is identical.
func checkAgainstReference(t *testing.T, raw []byte) {
	t.Helper()
	for _, tail := range []error{io.EOF, errSource} {
		for _, chunk := range []int{len(raw) + 1, 1, 3} {
			want := drain(newRefLogStream(&chunkReader{data: raw, chunk: chunk, tail: tail}))
			got := drain(NewLogStream(&chunkReader{data: raw, chunk: chunk, tail: tail}))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d-byte chunks ending in %v: LogStream and the reference disagree\n"+
					" stream:    %d/%d/%d count %d, %d events, err %q %+v\n"+
					" reference: %d/%d/%d count %d, %d events, err %q %+v",
					chunk, tail,
					got.modules, got.epochs, got.epochNs, got.total, len(got.events), got.err, got.decodeErr,
					want.modules, want.epochs, want.epochNs, want.total, len(want.events), want.err, want.decodeErr)
			}
		}
	}
}

// TestLogStreamMatchesReference is the differential table: LogStream
// must agree with the reference decoder on accept/reject, on every
// event and on the whole DecodeError, through every source shape.
func TestLogStreamMatchesReference(t *testing.T) {
	valid := buildCELog(2, 3, 1000, 2,
		0, 1000, 0, 1, 7, 42,
		1, 2000, 1, 0, 2, 5)
	// A log two windows long, so the first refill splits an event.
	var long []uint64
	for i := range 2 * varstream.WindowSize / 9 {
		long = append(long, 0, 1, 0, 3, 1<<28+uint64(i), 1<<20)
	}
	over := buildCELog(1, 1, 1000, 1)
	for range binary.MaxVarintLen64 {
		over = append(over, 0x80)
	}
	cases := map[string][]byte{
		"valid":                         valid,
		"sample":                        encodeCELog(t, sampleLog()),
		"empty log":                     buildCELog(0, 0, 0, 0),
		"trailing bytes":                append(buildCELog(1, 1, 1, 1, 0, 5, 0, 0, 0, 0), 0xff, 0xff),
		"no input":                      nil,
		"truncated magic":               valid[:3],
		"wrong magic":                   []byte("FCE0\x00\x00\x00"),
		"truncated header":              valid[:6],
		"truncated before events":       buildCELog(2, 3, 1000, 2),
		"truncated mid-event":           valid[:len(valid)-1],
		"implausible module count":      buildCELog(1<<33, 1, 1000, 0),
		"implausible epoch count":       buildCELog(1, 1<<33, 1000, 0),
		"epoch duration overflows":      buildCELog(1, 1, math.MaxUint64, 0),
		"implausible event count":       buildCELog(1, 1, 1000, 1<<41),
		"module delta overflows uint32": buildCELog(2, 1, 1000, 1, math.MaxUint64),
		"module outside declared fleet": buildCELog(2, 1, 1000, 1, 2, 0, 0, 0, 0, 0),
		"undeclared fleet size":         buildCELog(0, 1, 1000, 1, 7, 0, 0, 0, 0, 0),
		"timestamp overflows int64":     buildCELog(1, 1, 1000, 1, 0, math.MaxUint64),
		"running timestamp overflows":   buildCELog(1, 1, 1000, 2, 0, math.MaxInt64-1, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0),
		"rank overflows uint8":          buildCELog(1, 1, 1000, 1, 0, 5, 256, 0, 0, 0),
		"col overflows uint32":          buildCELog(1, 1, 1000, 1, 0, 5, 0, 0, 1, 1<<33),
		"ten continuation bytes":        over,
		"tenth byte overflows":          append(buildCELog(1, 1, 1000, 1), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02, 0x00),
		"non-minimal varints":           append(buildCELog(1, 1, 1000, 1), 0x80, 0x00, 0x85, 0x00, 0, 0, 0, 0x81, 0x80, 0x00),
		"two windows":                   buildCELog(1, 1, 1000, uint64(len(long)/6), long...),
		"two windows truncated":         buildCELog(1, 1, 1000, uint64(len(long)/6), long...)[:varstream.WindowSize+3],
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
