package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCompactRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteCompact(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCompact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.Duration != tr.Duration || len(got.Events) != len(tr.Events) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range tr.Events {
		if got.Events[i] != tr.Events[i] {
			t.Errorf("event %d = %+v, want %+v", i, got.Events[i], tr.Events[i])
		}
	}
}

func TestCompactRejectsInvalidTrace(t *testing.T) {
	bad := &Trace{Events: []Event{{Page: 1, At: 10}, {Page: 1, At: 5}}}
	var buf bytes.Buffer
	if err := bad.WriteCompact(&buf); err == nil {
		t.Error("unsorted trace written")
	}
}

// TestWriteCompactRejectsMisuse: WriteCompact refuses what the format
// cannot hold in order: out-of-order or negative timestamps, and a
// negative duration; events sharing a timestamp are in order.
func TestWriteCompactRejectsMisuse(t *testing.T) {
	for name, bad := range map[string]*Trace{
		"timestamp out of order": {Duration: 100, Events: []Event{{Page: 1, At: 10}, {Page: 1, At: 5}}},
		"negative timestamp":     {Duration: 100, Events: []Event{{Page: 1, At: -5}}},
		"negative duration":      {Duration: -1},
	} {
		if err := bad.WriteCompact(io.Discard); err == nil {
			t.Errorf("%s: WriteCompact accepted the trace", name)
		}
	}
	good := &Trace{Duration: 100, Events: []Event{{Page: 1, At: 10}, {Page: 2, At: 10}}}
	if err := good.WriteCompact(io.Discard); err != nil {
		t.Errorf("WriteCompact rejected events sharing a timestamp: %v", err)
	}
}

func TestCompactRejectsGarbage(t *testing.T) {
	if _, err := ReadCompact(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("garbage accepted")
	}
	// A retired fixed-width v1 file: magic 0x4d435452 ("MCTR") and
	// version 1, both little-endian uint32, then a name length. It must
	// be rejected as a bad format, never misparsed.
	v1 := []byte{0x52, 0x54, 0x43, 0x4d, 1, 0, 0, 0, 1, 0, 0, 0, 'x'}
	if _, err := ReadCompact(bytes.NewReader(v1)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("v1 header: err = %v, want ErrBadFormat", err)
	}
	// Truncation.
	tr := sampleTrace()
	var c bytes.Buffer
	tr.WriteCompact(&c)
	if _, err := ReadCompact(bytes.NewReader(c.Bytes()[:c.Len()-2])); err == nil {
		t.Error("truncated compact stream accepted")
	}
}

func TestCompactSmallerThanV1(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := &Trace{Name: "big"}
	var at Microseconds
	for i := 0; i < 20000; i++ {
		at += Microseconds(rng.Intn(500))
		tr.Events = append(tr.Events, Event{Page: uint32(rng.Intn(256)), At: at})
	}
	tr.Duration = at + 1
	var v2 bytes.Buffer
	if err := tr.WriteCompact(&v2); err != nil {
		t.Fatal(err)
	}
	// The retired fixed-width v1 layout: magic, version and name length
	// (uint32 each), the name, duration and event count (int64/uint64),
	// then 12 bytes (uint32 page, int64 timestamp) per event.
	v1Len := 3*4 + len(tr.Name) + 2*8 + 12*len(tr.Events)
	if v2.Len() >= v1Len/2 {
		t.Errorf("compact format %d bytes, v1 %d bytes; want at least 2x smaller", v2.Len(), v1Len)
	}
}

// Property: compact round-trip preserves arbitrary sorted traces.
func TestCompactRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := &Trace{Name: "prop"}
		var at Microseconds
		for i := 0; i < int(n); i++ {
			at += Microseconds(rng.Intn(100000))
			tr.Events = append(tr.Events, Event{Page: uint32(rng.Uint32()), At: at})
		}
		tr.Duration = at + 1
		var buf bytes.Buffer
		if err := tr.WriteCompact(&buf); err != nil {
			return false
		}
		got, err := ReadCompact(&buf)
		if err != nil {
			return false
		}
		if got.Duration != tr.Duration || len(got.Events) != len(tr.Events) {
			return false
		}
		for i := range tr.Events {
			if got.Events[i] != tr.Events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
