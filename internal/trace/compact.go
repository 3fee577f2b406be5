package trace

import (
	"fmt"
	"io"
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
// trace must be sorted by timestamp (Validate). Producers whose events
// do not fit in memory should use Encoder, which writes the identical
// byte stream incrementally.
func (t *Trace) WriteCompact(w io.Writer) error {
	if err := t.Validate(); err != nil {
		return fmt.Errorf("trace: refusing to write invalid trace: %w", err)
	}
	enc, err := NewEncoder(w, t.Name, t.Duration, uint64(len(t.Events)))
	if err != nil {
		return err
	}
	for _, e := range t.Events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return enc.Close()
}

// maxEventPrealloc caps the event capacity trusted from a stream header
// before any event bytes have been seen; larger traces grow by append.
const maxEventPrealloc = 1 << 20

// ReadCompact deserializes a trace written by WriteCompact. It
// materializes the whole event slice; use NewStream to replay traces
// too large to hold resident. Decoding is shared with Stream, so a
// malformed stream fails with the same positioned DecodeError on both
// paths.
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
		e, err := s.Next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		t.Events = append(t.Events, e)
	}
}
