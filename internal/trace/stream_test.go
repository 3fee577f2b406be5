package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

// buildCompact hand-assembles a compact stream from raw header fields
// and pre-encoded event varints, so tests can express malformed inputs
// the Encoder refuses to produce.
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
			var de *DecodeError
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

func TestEncoderMatchesWriteCompact(t *testing.T) {
	tr := streamSampleTrace()
	tr.Sort()
	var want bytes.Buffer
	if err := tr.WriteCompact(&want); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	enc, err := NewEncoder(&got, tr.Name, tr.Duration, uint64(len(tr.Events)))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Events {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("encoder output differs from WriteCompact (%d vs %d bytes)", got.Len(), want.Len())
	}
}

func TestEncoderRejectsMisuse(t *testing.T) {
	var b bytes.Buffer
	enc, err := NewEncoder(&b, "t", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err == nil {
		t.Error("Close accepted an unmet event count")
	}
	if err := enc.Encode(Event{Page: 1, At: 10}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(Event{Page: 1, At: 5}); err == nil {
		t.Error("Encode accepted an out-of-order event")
	}
	if err := enc.Encode(Event{Page: 2, At: 20}); err == nil {
		t.Error("Encode accepted an event beyond the declared count")
	}
}

// FuzzStream cross-checks the two decode paths on arbitrary bytes:
// they must agree on accept/reject, and on accepted inputs the decoded
// events must match and the re-encode must be byte-identical up to the
// consumed prefix.
func FuzzStream(f *testing.F) {
	f.Add(buildCompact("t", 100, 2, 5, 1, 10, 2))
	f.Add(buildCompact("", 0, 0))
	f.Add(buildCompact("x", math.MaxInt64, 1, math.MaxInt64, 0))
	f.Add([]byte("MCTC garbage"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		tr, rcErr := ReadCompact(bytes.NewReader(raw))

		var streamed []Event
		s, sErr := NewStream(bytes.NewReader(raw))
		if sErr == nil {
			for {
				e, err := s.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					sErr = err
					break
				}
				streamed = append(streamed, e)
			}
		}

		if (rcErr == nil) != (sErr == nil) {
			t.Fatalf("paths disagree: ReadCompact err=%v, Stream err=%v", rcErr, sErr)
		}
		if rcErr != nil {
			return
		}
		if len(streamed) != len(tr.Events) {
			t.Fatalf("stream %d events, ReadCompact %d", len(streamed), len(tr.Events))
		}
		for i := range streamed {
			if streamed[i] != tr.Events[i] {
				t.Fatalf("event %d: %+v != %+v", i, streamed[i], tr.Events[i])
			}
		}
		// Re-encoding the decoded trace and decoding again must
		// round-trip losslessly, and the re-encode must be a canonical
		// fixed point: encode(decode(encode(x))) == encode(x). (A plain
		// prefix check against raw would be too strong — ReadUvarint
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

// encodeCompact encodes through the streaming Encoder and returns the
// bytes.
func encodeCompact(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var b bytes.Buffer
	enc, err := NewEncoder(&b, tr.Name, tr.Duration, uint64(len(tr.Events)))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Events {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}
