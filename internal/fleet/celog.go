package fleet

import (
	"errors"
	"fmt"
	"io"
	"math"

	"memcon/internal/varstream"
)

// Compact streaming codec for CE event logs, in the framing the
// compact trace uses (varstream): a fleet-scale log holds one event per
// correctable error across months of simulated time for thousands of
// modules, so LogStream decodes one event per Next call in O(1)
// memory. The format is delta/varint over the canonical (Module, At,
// Rank, Bank, Row, Col) order, whose delta-bearing prefix WriteLog
// enforces: module indices arrive non-decreasing and timestamps
// non-decreasing within a module. The decoder tolerates non-minimal
// varints, so re-encoding a decoded log canonicalizes it —
// encode∘decode is a fixed point (FuzzCELog pins it).
//
// Layout (all varints unsigned LEB128):
//
//	magic "FCE1" (LE uint32)
//	modules, epochs, epochNs, count   — header varints
//	per event:
//	  moduleDelta                     — module - prevModule
//	  at / atDelta                    — absolute when the module
//	                                    changed, else at - prevAt
//	  rank, bank, row, col            — absolute varints

// celogMagic is "FCE1" little-endian.
const celogMagic = 0x31454346

// ErrBadLog reports a structurally invalid CE log.
var ErrBadLog = errors.New("fleet: malformed CE log")

// LogStream incrementally decodes a CE log: NewLogStream consumes the
// header, then each Next call decodes one event. Memory use is
// constant regardless of log size, and malformed input fails with a
// positioned *varstream.DecodeError.
type LogStream struct {
	r       varstream.Reader
	modules int
	epochs  int
	epochNs int64
	prevMod uint32
	prevAt  int64
}

// NewLogStream opens a CE log over r, reading and validating the
// header. The events decode lazily through Next.
func NewLogStream(r io.Reader) (*LogStream, error) {
	s := &LogStream{}
	if err := s.r.Open(r, "fleet", celogMagic, ErrBadLog); err != nil {
		return nil, err
	}
	modules, err := s.r.Header("module count", 1<<32)
	if err != nil {
		return nil, err
	}
	epochs, err := s.r.Header("epoch count", 1<<32)
	if err != nil {
		return nil, err
	}
	epochNs, err := s.r.Header("epoch duration", math.MaxInt64)
	if err != nil {
		return nil, err
	}
	if err := s.r.Count(1 << 40); err != nil {
		return nil, err
	}
	s.modules, s.epochs, s.epochNs = int(modules), int(epochs), int64(epochNs)
	return s, nil
}

// Modules returns the fleet size from the header.
func (s *LogStream) Modules() int { return s.modules }

// Epochs returns the observation length from the header.
func (s *LogStream) Epochs() int { return s.epochs }

// EpochNs returns the scrub interval from the header.
func (s *LogStream) EpochNs() int64 { return s.epochNs }

// Events returns the declared event count from the header.
func (s *LogStream) Events() uint64 { return s.r.Events() }

// Next decodes and returns the next event. It returns io.EOF after the
// declared count has been delivered; any other error (truncation,
// field overflow, ordering violation) is positioned and sticky.
func (s *LogStream) Next() (Event, error) {
	if s.r.Done() {
		return Event{}, s.r.Err()
	}
	off := s.r.Begin()
	modDelta, err := s.r.Uvarint()
	if err != nil {
		return Event{}, s.r.Fail(off, "module delta", err)
	}
	if modDelta > uint64(math.MaxUint32)-uint64(s.prevMod) {
		return Event{}, s.r.Fail(off, "module delta",
			fmt.Errorf("%w: module delta %d overflows uint32 at module %d", ErrBadLog, modDelta, s.prevMod))
	}
	mod := s.prevMod + uint32(modDelta)
	if s.modules > 0 && uint64(mod) >= uint64(s.modules) {
		return Event{}, s.r.Fail(off, "module delta",
			fmt.Errorf("%w: module %d outside declared fleet of %d", ErrBadLog, mod, s.modules))
	}
	if modDelta > 0 {
		s.prevAt = 0
	}
	off = s.r.Offset()
	at, err := s.r.Uvarint()
	if err != nil {
		return Event{}, s.r.Fail(off, "timestamp", err)
	}
	// Reject deltas that would wrap the running timestamp: the wrap
	// would surface only later as an out-of-order event, far from the
	// corrupt bytes.
	if at > math.MaxInt64 || int64(at) > math.MaxInt64-s.prevAt {
		return Event{}, s.r.Fail(off, "timestamp",
			fmt.Errorf("%w: delta %d overflows the timestamp at %d", ErrBadLog, at, s.prevAt))
	}
	s.prevMod = mod
	s.prevAt += int64(at)
	ev := Event{Module: mod, At: s.prevAt}
	var f [4]uint64 // rank, bank, row, col
	for i, name := range [4]string{"rank", "bank", "row", "col"} {
		max := uint64(math.MaxUint32) // row, col
		if i < 2 {
			max = math.MaxUint8 // rank, bank
		}
		off = s.r.Offset()
		if f[i], err = s.r.Uvarint(); err != nil {
			return Event{}, s.r.Fail(off, name, err)
		}
		if f[i] > max {
			return Event{}, s.r.Fail(off, name, fmt.Errorf("%w: %s %d overflows", ErrBadLog, name, f[i]))
		}
	}
	ev.Rank, ev.Bank, ev.Row, ev.Col = uint8(f[0]), uint8(f[1]), uint32(f[2]), uint32(f[3])
	return ev, nil
}

// WriteLog encodes a materialized log, whose events must be in
// canonical order (non-decreasing module; within a module
// non-decreasing time). The ground-truth Info entries are not
// serialized — they are regenerable from the run inputs; the file is
// the pure event log a field pipeline would collect.
func WriteLog(w io.Writer, log *Log) error {
	if log.Modules < 0 || log.Epochs < 0 || log.EpochNs < 0 {
		return fmt.Errorf("fleet: negative log header field (%d modules, %d epochs, %d ns)", log.Modules, log.Epochs, log.EpochNs)
	}
	vw := varstream.NewWriter(w, celogMagic)
	vw.Uvarint(uint64(log.Modules))
	vw.Uvarint(uint64(log.Epochs))
	vw.Uvarint(uint64(log.EpochNs))
	vw.Uvarint(uint64(len(log.Events)))
	var prevMod uint32
	var prevAt int64
	for i, ev := range log.Events {
		if ev.At < 0 {
			return fmt.Errorf("fleet: event timestamp %d is negative", ev.At)
		}
		if ev.Module != prevMod {
			if i > 0 && ev.Module < prevMod {
				return fmt.Errorf("fleet: module %d out of order (previous %d)", ev.Module, prevMod)
			}
			prevAt = 0
		}
		if ev.At < prevAt {
			return fmt.Errorf("fleet: module %d event at %d out of order (previous %d)", ev.Module, ev.At, prevAt)
		}
		vw.Uvarint(uint64(ev.Module - prevMod))
		vw.Uvarint(uint64(ev.At - prevAt))
		vw.Uvarint(uint64(ev.Rank))
		vw.Uvarint(uint64(ev.Bank))
		vw.Uvarint(uint64(ev.Row))
		vw.Uvarint(uint64(ev.Col))
		vw.Emit()
		prevMod, prevAt = ev.Module, ev.At
	}
	return vw.Close()
}

// ReadLog materializes a CE log file written by WriteLog (Info is not
// serialized and comes back nil).
func ReadLog(r io.Reader) (*Log, error) {
	s, err := NewLogStream(r)
	if err != nil {
		return nil, err
	}
	log := &Log{
		Modules: s.Modules(), Epochs: s.Epochs(), EpochNs: s.EpochNs(),
		Events: make([]Event, 0, min(s.Events(), 1<<20)),
	}
	for {
		ev, err := s.Next()
		if err == io.EOF {
			return log, nil
		}
		if err != nil {
			return nil, err
		}
		log.Events = append(log.Events, ev)
	}
}
