package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"memcon/internal/varstream"
)

// buildCompact hand-assembles a compact stream from raw header fields
// and pre-encoded event varints, so tests can express malformed inputs
// WriteCompact refuses to produce.
func buildCompact(name string, duration uint64, count uint64, events ...uint64) []byte {
	var b bytes.Buffer
	binary.Write(&b, binary.LittleEndian, compactMagic)
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		b.Write(tmp[:n])
	}
	put(uint64(len(name)))
	b.WriteString(name)
	put(duration)
	put(count)
	for _, v := range events {
		put(v)
	}
	return b.Bytes()
}

func streamSampleTrace() *Trace {
	return &Trace{
		Name:     "sample",
		Duration: 5 * Second,
		Events: []Event{
			{Page: 3, At: 10},
			{Page: 0, At: 10},
			{Page: 9, At: 4000},
			{Page: 3, At: 2 * Second},
		},
	}
}

func TestStreamMatchesReadCompact(t *testing.T) {
	tr := streamSampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteCompact(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	got, err := ReadCompact(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStream(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != tr.Name || s.Duration() != tr.Duration || s.Events() != uint64(len(tr.Events)) {
		t.Fatalf("stream header = (%q, %d, %d), want (%q, %d, %d)",
			s.Name(), s.Duration(), s.Events(), tr.Name, tr.Duration, len(tr.Events))
	}
	var streamed []Event
	for {
		e, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, e)
	}
	if len(streamed) != len(got.Events) {
		t.Fatalf("stream yielded %d events, ReadCompact %d", len(streamed), len(got.Events))
	}
	for i := range streamed {
		if streamed[i] != got.Events[i] {
			t.Fatalf("event %d: stream %+v != materialized %+v", i, streamed[i], got.Events[i])
		}
	}
	// Next after EOF keeps returning EOF.
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("Next after end = %v, want io.EOF", err)
	}
}

// TestCompactDecodeErrors is the satellite table test: truncated and
// overflowing inputs must fail with a positioned DecodeError — on both
// the streaming and the materializing path — rather than wrapping
// silently or reporting a clean end.
func TestCompactDecodeErrors(t *testing.T) {
	valid := buildCompact("t", 100, 2, 5, 1, 10, 2) // events at 5/page1, 15/page2
	cases := []struct {
		name      string
		input     []byte
		wantEvent int64 // expected DecodeError.Event
		wantIs    error // expected errors.Is target (nil = any)
	}{
		{
			name:      "delta overflows int64",
			input:     buildCompact("t", 100, 1, math.MaxUint64, 0),
			wantEvent: 0,
			wantIs:    ErrBadFormat,
		},
		{
			name: "running timestamp overflows",
			// First event lands at MaxInt64-1; the second delta of 2
			// would wrap negative.
			input:     buildCompact("t", 100, 2, math.MaxInt64-1, 0, 2, 0),
			wantEvent: 1,
			wantIs:    ErrBadFormat,
		},
		{
			name:      "page overflows uint32",
			input:     buildCompact("t", 100, 1, 0, 1<<33),
			wantEvent: 0,
			wantIs:    ErrBadFormat,
		},
		{
			name:      "truncated mid-event",
			input:     valid[:len(valid)-1],
			wantEvent: 1,
			wantIs:    io.ErrUnexpectedEOF,
		},
		{
			name:      "truncated before events",
			input:     buildCompact("t", 100, 2),
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
			name:      "implausible event count",
			input:     buildCompact("t", 100, 1<<33),
			wantEvent: -1,
			wantIs:    ErrBadFormat,
		},
		{
			name:      "duration overflows int64",
			input:     buildCompact("t", math.MaxUint64, 0),
			wantEvent: -1,
			wantIs:    ErrBadFormat,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadCompact(bytes.NewReader(tc.input))
			if err == nil {
				t.Fatal("ReadCompact accepted malformed input")
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
			if tc.wantIs != nil && !errors.Is(err, tc.wantIs) {
				t.Errorf("errors.Is(%v, %v) = false", err, tc.wantIs)
			}
			if !strings.Contains(err.Error(), "offset") {
				t.Errorf("error %q does not mention the offset", err)
			}
		})
	}
}

// FuzzStream checks Stream against the reference decoder on arbitrary
// bytes and source shapes (checkAgainstReference), then checks that an
// accepted input round-trips through writeCompact.
func FuzzStream(f *testing.F) {
	f.Add(buildCompact("t", 100, 2, 5, 1, 10, 2))
	f.Add(buildCompact("", 0, 0))
	f.Add(buildCompact("x", math.MaxInt64, 1, math.MaxInt64, 0))
	f.Add([]byte("MCTC garbage"))
	f.Add(tenContinuations())
	f.Add(straddleInputs()[3])
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkAgainstReference(t, raw)
		tr, err := ReadCompact(bytes.NewReader(raw))
		if err != nil {
			return
		}
		// Re-encoding the decoded trace and decoding again must
		// round-trip losslessly, and the re-encode must be a canonical
		// fixed point: encode(decode(encode(x))) == encode(x). (A plain
		// prefix check against raw would be too strong — the decoder
		// tolerates non-minimal varints the canonical encoder never
		// emits.)
		first := encodeCompact(t, tr)
		again, err := ReadCompact(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-encoded trace failed to decode: %v", err)
		}
		if again.Name != tr.Name || again.Duration != tr.Duration || len(again.Events) != len(tr.Events) {
			t.Fatalf("round-trip changed the trace: %q/%d/%d vs %q/%d/%d",
				again.Name, again.Duration, len(again.Events), tr.Name, tr.Duration, len(tr.Events))
		}
		for i := range again.Events {
			if again.Events[i] != tr.Events[i] {
				t.Fatalf("round-trip changed event %d: %+v != %+v", i, again.Events[i], tr.Events[i])
			}
		}
		if second := encodeCompact(t, again); !bytes.Equal(first, second) {
			t.Fatalf("re-encode is not a fixed point:\n first  %x\n second %x", first, second)
		}
	})
}

// stallReader serves data one byte per Read, each after stall empty
// (0, nil) reads, then returns (0, nil) forever. Past ten times the
// empty reads a refill accepts it fails instead, so a decoder that
// spins fails the test rather than hanging it.
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

// TestStreamNoProgress: a source that stops making progress fails the
// field being read with io.ErrNoProgress after exactly varstream.MaxEmptyReads
// empty reads, as bufio.Reader does, and is not reported as
// truncation; fewer empty reads in a row are waited out.
func TestStreamNoProgress(t *testing.T) {
	raw := buildCompact("t", 100, 2, 5, 1, 300, 2)
	want, err := ReadCompact(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadCompact(&stallReader{data: raw, stall: varstream.MaxEmptyReads - 1})
	if err != nil {
		t.Fatalf("%d empty reads before each byte: %v", varstream.MaxEmptyReads-1, err)
	}
	if !slices.Equal(got.Events, want.Events) {
		t.Fatalf("stalling source decoded %v, want %v", got.Events, want.Events)
	}
	// Stall before the magic, inside it, before the name length and the
	// duration, and inside the 2-byte delta.
	for _, cut := range []int{0, 2, 4, 6, len(raw) - 2} {
		r := &stallReader{data: raw[:cut]}
		_, err := ReadCompact(r)
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

// TestStreamSourceErrorMidField: a source error inside a multi-byte
// field is the DecodeError's cause, positioned at the field's start.
func TestStreamSourceErrorMidField(t *testing.T) {
	header := len(buildCompact("t", 100, 1))
	raw := buildCompact("t", 100, 1, 300, 70000) // a 2-byte delta, a 3-byte page
	for _, tc := range []struct {
		cut    int
		field  string
		offset int
	}{
		{header + 1, "delta", header},
		{header + 3, "page", header + 2},
		{header + 4, "page", header + 2},
	} {
		_, err := ReadCompact(&chunkReader{data: raw[:tc.cut], chunk: 3, tail: errSource})
		var de *varstream.DecodeError
		if !errors.As(err, &de) || !errors.Is(err, errSource) {
			t.Errorf("cut at %d: err = %v, want a DecodeError caused by the source error", tc.cut, err)
			continue
		}
		if de.Event != 0 || de.Field != tc.field || de.Offset != int64(tc.offset) {
			t.Errorf("cut at %d: error at event %d %s offset %d, want event 0 %s offset %d",
				tc.cut, de.Event, de.Field, de.Offset, tc.field, tc.offset)
		}
	}
}

// TestStreamAllocs pins the allocation contract: opening a stream and
// draining it allocates the Stream, its window and the name, whatever
// the trace's length, and Next allocates nothing.
func TestStreamAllocs(t *testing.T) {
	tr := &Trace{Name: "allocs", Duration: 10 * Second}
	for i := range 5000 {
		tr.Events = append(tr.Events, Event{Page: uint32(i % 300), At: Microseconds(i) * 37})
	}
	var buf bytes.Buffer
	if err := tr.WriteCompact(&buf); err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(nil)
	drainAll := func() {
		rd.Reset(buf.Bytes())
		s, err := NewStream(rd)
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
	}
	if n := testing.AllocsPerRun(20, drainAll); n > 3 {
		t.Errorf("NewStream plus a drain of %d events allocates %.1f times, want at most 3", len(tr.Events), n)
	}
	rd.Reset(buf.Bytes())
	s, err := NewStream(rd)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Next allocates %.1f times per event, want 0", n)
	}
}

// TestWriteCompactAllocs pins the writer's allocation contract:
// WriteCompact allocates the varint writer, its bufio.Writer and that
// buffer, whatever the trace's length, and nothing per event.
func TestWriteCompactAllocs(t *testing.T) {
	for _, n := range []int{0, 10, 5000} {
		tr := &Trace{Name: "allocs", Duration: Microseconds(n) * 37}
		for i := range n {
			tr.Events = append(tr.Events, Event{Page: uint32(i % 300), At: Microseconds(i) * 37})
		}
		if a := testing.AllocsPerRun(20, func() {
			if err := tr.WriteCompact(io.Discard); err != nil {
				t.Fatal(err)
			}
		}); a > 3 {
			t.Errorf("WriteCompact of %d events allocates %.1f times, want at most 3", n, a)
		}
	}
}

// encodeCompact encodes through writeCompact, which unlike
// WriteCompact accepts what the decoder accepts: a duration shorter
// than the last event.
func encodeCompact(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := tr.writeCompact(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}
