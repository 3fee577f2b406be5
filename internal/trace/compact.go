package trace

import (
	"fmt"
	"io"
	"slices"

	"memcon/internal/varstream"
)

// Compact (v2) trace format, the one on-disk trace format:
// delta/varint encoded. Timestamps are monotone, so storing per-event
// deltas in unsigned varints compresses long traces by 3-5x against a
// fixed-width layout — worthwhile for multi-minute, multi-million-event
// bus traces. The layout is a little-endian uint32 magic ("MCTC"), a
// uvarint name length and the name bytes, the duration and the event
// count as uvarints, then per event the timestamp delta and the page as
// uvarints. A file in the retired fixed-width v1 format ("MCTR") fails
// with ErrBadFormat; a trace depends only on (app, seed, scale), so
// tracegen regenerates it.

// compactMagic identifies the compact format.
const compactMagic = uint32(0x4d435443) // "MCTC"

// WriteCompact serializes the trace in the delta/varint format. The
// trace must be sorted by timestamp (Validate), and its duration must
// not be negative.
func (t *Trace) WriteCompact(w io.Writer) error {
	if err := t.Validate(); err != nil {
		return fmt.Errorf("trace: refusing to write invalid trace: %w", err)
	}
	if t.Duration < 0 {
		return fmt.Errorf("trace: negative duration %d", t.Duration)
	}
	return t.writeCompact(w)
}

// writeCompact encodes the trace without checking it. Each event's two
// fields go out in one buffered Write.
func (t *Trace) writeCompact(w io.Writer) error {
	vw := varstream.NewWriter(w, compactMagic)
	vw.String(t.Name)
	vw.Uvarint(uint64(t.Duration))
	vw.Uvarint(uint64(len(t.Events)))
	var prev Microseconds
	for _, e := range t.Events {
		vw.Uvarint(uint64(e.At - prev))
		vw.Uvarint(uint64(e.Page))
		vw.Emit()
		prev = e.At
	}
	return vw.Close()
}

// maxEventPrealloc caps the event capacity trusted from a stream header
// before any event bytes have been seen; larger traces grow by append.
const maxEventPrealloc = 1 << 20

// ReadCompact deserializes a trace written by WriteCompact. It
// materializes the whole event slice; use NewStream to replay traces
// too large to hold resident. It fills the slice through Stream.Read,
// the decoder replay uses, so a malformed stream fails with the same
// positioned *varstream.DecodeError on both paths.
func ReadCompact(r io.Reader) (*Trace, error) {
	s, err := NewStream(r)
	if err != nil {
		return nil, err
	}
	t := &Trace{Name: s.Name(), Duration: s.Duration()}
	if n := s.Events(); n > 0 {
		t.Events = make([]Event, 0, min(n, maxEventPrealloc))
	}
	for {
		n, err := s.Read(t.Events[len(t.Events):cap(t.Events)])
		t.Events = t.Events[:len(t.Events)+n]
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		t.Events = slices.Grow(t.Events, 1)
	}
}
