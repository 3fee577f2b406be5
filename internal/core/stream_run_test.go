package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"memcon/internal/trace"
	"memcon/internal/varstream"
)

// compactStream encodes tr in the compact format and returns a Stream
// over the bytes — the path memconsim -replay takes.
func compactStream(t testing.TB, tr *trace.Trace) *trace.Stream {
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
// once a fixed number of events have been handed out, emulating a user
// interrupt in the middle of a long streaming replay.
type cancellingSource struct {
	src    trace.Source
	served int
	after  int
	cancel context.CancelFunc
}

func (c *cancellingSource) Name() string                 { return c.src.Name() }
func (c *cancellingSource) Duration() trace.Microseconds { return c.src.Duration() }

func (c *cancellingSource) Read(dst []trace.Event) (int, error) {
	n, err := c.src.Read(dst)
	if c.served < c.after && c.served+n >= c.after {
		c.cancel()
	}
	c.served += n
	return n, err
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
		// The run must stop at the next check, before the next batch,
		// not drain the remaining half of the stream.
		if src.served >= events {
			t.Errorf("cancelled run drained all %d events", events)
		}
		if src.served > events/2+sourceBatch {
			t.Errorf("cancelled run read %d events, more than one batch past the cancellation at %d", src.served, events/2)
		}
	})
}

// TestRunSourceDecodeError pins error plumbing: a truncated compact
// stream surfaces its positioned DecodeError through RunSource.
func TestRunSourceDecodeError(t *testing.T) {
	tr := &trace.Trace{Name: "trunc", Duration: 1000}
	for i := 0; i < 4; i++ {
		tr.Events = append(tr.Events, trace.Event{Page: uint32(i), At: trace.Microseconds(i) * 10})
	}
	var buf bytes.Buffer
	if err := tr.WriteCompact(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := trace.NewStream(bytes.NewReader(buf.Bytes()[:buf.Len()-2]))
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunSource(context.Background(), s, DefaultConfig())
	var de *varstream.DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("RunSource on truncated stream = %v (%T), want *varstream.DecodeError", err, err)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("errors.Is(%v, io.ErrUnexpectedEOF) = false", err)
	}
}

// stallSource is a Source whose Read returns no events and no error,
// up to limit times, and then errSource.
type stallSource struct{ reads, limit int }

var errSource = errors.New("source failed")

func (s *stallSource) Name() string                 { return "stall" }
func (s *stallSource) Duration() trace.Microseconds { return 1000 }

func (s *stallSource) Read([]trace.Event) (int, error) {
	if s.reads++; s.reads > s.limit {
		return 0, errSource
	}
	return 0, nil
}

// TestRunSourceNoProgress pins that a source that returns (0, nil) for
// a non-empty buffer fails the run with io.ErrNoProgress at once
// rather than spinning under a context that is never cancelled.
func TestRunSourceNoProgress(t *testing.T) {
	src := &stallSource{limit: 1000}
	_, err := RunSource(context.Background(), src, DefaultConfig())
	if !errors.Is(err, io.ErrNoProgress) {
		t.Fatalf("RunSource = %v, want io.ErrNoProgress", err)
	}
	if src.reads != 1 {
		t.Errorf("RunSource read %d times, want 1", src.reads)
	}
}

// allocated reports the fewest bytes and objects one call of f
// allocated over five calls.
func allocated(f func()) (size, objects uint64) {
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		b, o := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		if i == 0 || b < size {
			size = b
		}
		if i == 0 || o < objects {
			objects = o
		}
	}
	return size, objects
}

// TestRunSourceAllocs pins the allocation contract of a stream replay:
// NewStream plus RunSource allocates what an in-memory RunContext of
// the same trace allocates (the engine and its page state), plus the
// Stream, its window, its name and one batch of events: at most four
// objects and 10 KiB more, whatever the event count. It keeps the
// replay's peak RSS from growing with its batch size.
func TestRunSourceAllocs(t *testing.T) {
	const pages = 300
	for _, events := range []int{1000, 50000} {
		tr := &trace.Trace{Name: "allocs", Duration: trace.Microseconds(events) * 40}
		for i := 0; i < events; i++ {
			tr.Events = append(tr.Events, trace.Event{Page: uint32(i * 7 % pages), At: trace.Microseconds(i) * 37})
		}
		var buf bytes.Buffer
		if err := tr.WriteCompact(&buf); err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.NumPages = pages
		run := func(replay func(*Engine) (Report, error)) func() {
			return func() {
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := replay(e); err != nil {
					t.Fatal(err)
				}
			}
		}
		rd := bytes.NewReader(nil)
		baseBytes, baseObjects := allocated(run(func(e *Engine) (Report, error) {
			return e.RunContext(context.Background(), tr)
		}))
		gotBytes, gotObjects := allocated(run(func(e *Engine) (Report, error) {
			rd.Reset(buf.Bytes())
			s, err := trace.NewStream(rd)
			if err != nil {
				return Report{}, err
			}
			return e.RunSource(context.Background(), s)
		}))
		t.Logf("%d events: in-memory replay %d B in %d objects, stream replay %d B in %d objects",
			events, baseBytes, baseObjects, gotBytes, gotObjects)
		if gotObjects > baseObjects+4 || gotBytes > baseBytes+10<<10 {
			t.Errorf("%d events: a stream replay allocates %d B in %d objects, want at most %d B in %d",
				events, gotBytes, gotObjects, baseBytes+10<<10, baseObjects+4)
		}
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

	// The events are encoded as they are made, in the compact layout
	// trace.WriteCompact writes, so the test never holds them all.
	var buf bytes.Buffer
	buf.Grow(16 << 20)
	vw := varstream.NewWriter(&buf, 0x4d435443) // the compact magic, "MCTC"
	vw.String("big")
	vw.Uvarint(uint64(duration))
	vw.Uvarint(events)
	for i := 0; i < events; i++ {
		// Knuth-hash page walk: touches the whole page space without
		// per-event rand overhead, deterministic across runs.
		vw.Uvarint(stepUs)
		vw.Uvarint(uint64(i) * 2654435761 % pages)
		vw.Emit()
	}
	if err := vw.Close(); err != nil {
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

// TestPageBound pins MaxPages on every entry point: a write naming a
// page beyond it fails the run with the page and the bound in the
// error, before the engine grows, and Validate rejects a starting page
// space beyond it. No run touches a page near the bound.
func TestPageBound(t *testing.T) {
	const page = math.MaxUint32
	want := fmt.Sprintf("page %d at or beyond the bound of %d pages", uint32(page), MaxPages)
	check := func(path string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want it to contain %q", path, err, want)
		}
	}
	tr := &trace.Trace{Name: "far", Duration: trace.Second, Events: []trace.Event{{Page: page, At: 1}}}

	src := compactStream(t, tr)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := RunSource(context.Background(), src, DefaultConfig())
	runtime.ReadMemStats(&after)
	check("RunSource", err)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("RunSource allocated %d bytes before failing, want under 1 MiB", got)
	}

	_, err = RunContext(context.Background(), tr, DefaultConfig())
	check("RunContext", err)

	e, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	check("Observe", e.Observe(tr.Events[0]))

	cfg := DefaultConfig()
	cfg.NumPages = MaxPages + 1
	if err := cfg.Validate(); err == nil {
		t.Errorf("Validate accepted NumPages = MaxPages + 1")
	}
}
