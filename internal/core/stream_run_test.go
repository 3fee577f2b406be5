package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"testing"

	"memcon/internal/trace"
)

// compactStream encodes tr in the compact format and returns a Stream
// over the bytes — the path memconsim -replay takes.
func compactStream(t *testing.T, tr *trace.Trace) *trace.Stream {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteCompact(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := trace.NewStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// cancellingSource wraps a Source and fires a context cancellation
// after a fixed number of events have been handed out, emulating a
// user interrupt in the middle of a long streaming replay.
type cancellingSource struct {
	src    trace.Source
	served int
	after  int
	cancel context.CancelFunc
}

func (c *cancellingSource) Name() string                 { return c.src.Name() }
func (c *cancellingSource) Duration() trace.Microseconds { return c.src.Duration() }

func (c *cancellingSource) Next() (trace.Event, error) {
	c.served++
	if c.served == c.after {
		c.cancel()
	}
	return c.src.Next()
}

func TestRunSourceCancelledContext(t *testing.T) {
	const events = 10 * ctxCheckStride
	tr := &trace.Trace{Name: "cancel", Duration: trace.Microseconds(events) * 10}
	for i := 0; i < events; i++ {
		tr.Events = append(tr.Events, trace.Event{
			Page: uint32(i % 128),
			At:   trace.Microseconds(i) * 10,
		})
	}

	t.Run("already cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		src := &cancellingSource{src: compactStream(t, tr), after: -1, cancel: func() {}}
		if _, err := RunSource(ctx, src, DefaultConfig()); !errors.Is(err, context.Canceled) {
			t.Fatalf("RunSource = %v, want context.Canceled", err)
		}
		if src.served != 0 {
			t.Errorf("cancelled run consumed %d events before the first check", src.served)
		}
	})

	t.Run("mid stream", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		src := &cancellingSource{src: compactStream(t, tr), after: events / 2, cancel: cancel}
		if _, err := RunSource(ctx, src, DefaultConfig()); !errors.Is(err, context.Canceled) {
			t.Fatalf("RunSource = %v, want context.Canceled", err)
		}
		// The run must stop at the next stride check, not drain the
		// remaining half of the stream.
		if src.served >= events {
			t.Errorf("cancelled run drained all %d events", events)
		}
	})
}

// TestRunSourceDecodeError pins error plumbing: a truncated compact
// stream surfaces its positioned DecodeError through RunSource.
func TestRunSourceDecodeError(t *testing.T) {
	var buf bytes.Buffer
	enc, err := trace.NewEncoder(&buf, "trunc", 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := enc.Encode(trace.Event{Page: uint32(i), At: trace.Microseconds(i) * 10}); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := trace.NewStream(bytes.NewReader(buf.Bytes()[:buf.Len()-2]))
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunSource(context.Background(), s, DefaultConfig())
	var de *trace.DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("RunSource on truncated stream = %v (%T), want *trace.DecodeError", err, err)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("errors.Is(%v, io.ErrUnexpectedEOF) = false", err)
	}
}

// TestStreamingReplayMemoryIsOPages is the acceptance test for the
// streaming path: a 5M-event compact trace replays through
// trace.Stream with heap growth proportional to the page count, far
// below the ~80 MB the materialized event slice would occupy.
func TestStreamingReplayMemoryIsOPages(t *testing.T) {
	if testing.Short() {
		t.Skip("5M-event replay skipped in -short mode")
	}
	const (
		events = 5_000_000
		pages  = 4096
		stepUs = 13 // 5M * 13 µs = 65 s of trace time
	)
	duration := trace.Microseconds(events)*stepUs + trace.Second

	var buf bytes.Buffer
	buf.Grow(16 << 20)
	enc, err := trace.NewEncoder(&buf, "big", duration, events)
	if err != nil {
		t.Fatal(err)
	}
	at := trace.Microseconds(0)
	for i := 0; i < events; i++ {
		// Knuth-hash page walk: touches the whole page space without
		// per-event rand overhead, deterministic across runs.
		page := uint32(uint64(i) * 2654435761 % pages)
		if err := enc.Encode(trace.Event{Page: page, At: at}); err != nil {
			t.Fatal(err)
		}
		at += stepUs
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("encoded %d events into %d bytes (%.1f bits/event)",
		events, buf.Len(), 8*float64(buf.Len())/events)

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	s, err := trace.NewStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.NumPages = 1 // force streaming growth
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.RunSource(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(e) // keep engine state resident across the measurement

	if rep.Pril.Writes != events {
		t.Fatalf("replayed %d writes, want %d", rep.Pril.Writes, events)
	}
	if rep.Pages != pages {
		t.Fatalf("engine grew to %d pages, want %d", rep.Pages, pages)
	}

	const eventBytes = events * 16 // size of the materialized []Event
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("heap growth %d bytes (materialized events would be %d)", growth, eventBytes)
	if growth > eventBytes/8 {
		t.Fatalf("streaming replay grew the heap by %d bytes — not O(pages) (event storage is %d)",
			growth, eventBytes)
	}
}
