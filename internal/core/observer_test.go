package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"memcon/internal/obs"
	"memcon/internal/trace"
)

// TestObserverEventOrdering pins the exact event stream of a small
// scenario covering the full lifecycle: write, PRIL tracking and
// eviction, prediction, test queue/drain, LO-REF entry, in-test abort,
// and the LO->HI transition. Settled bursts follow: a write after a
// page's second write in a quantum takes the engine's settled path,
// and it must still emit its write event, with its gap, where the full
// path emits it. The stream was taken from the engine before it had
// that path. The engine is single-goroutine, so the stream is fully
// deterministic; any reordering is an API break for downstream
// observers.
func TestObserverEventOrdering(t *testing.T) {
	var rec obs.Recorder
	cfg := cfgForTest()
	cfg.NumPages = 2
	eng, err := New(cfg,
		WithObserver(&rec),
		WithClock(func() time.Time { return time.Unix(0, 0) }))
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{
		Name:     "lifecycle",
		Duration: 8 * q,
		Events: []trace.Event{
			{Page: 0, At: 0},           // both pages written once in quantum 0...
			{Page: 1, At: 1000},        // ...so both are predicted idle at 2q
			{Page: 1, At: 2*q + 32000}, // lands mid-test: aborts page 1's test
			{Page: 0, At: 5 * q},       // page 0 is at LO-REF by now: back to HI
			{Page: 1, At: 6*q - 3},     // a burst just before a boundary: page 1
			{Page: 1, At: 6*q - 2},     // settles on its second write, and its
			{Page: 1, At: 6*q - 1},     // third only counts
			{Page: 1, At: 7*q + 1000},  // page 1 settles again while page 0's
			{Page: 1, At: 7*q + 2000},  // test (queued at 7q) is in flight...
			{Page: 1, At: 7*q + 64000}, // ...and this write lands on its completion
		},
	}
	if _, err := eng.RunContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range rec.Events() {
		got = append(got, e.String())
	}
	// Note the drain entries surface the engine's actual drain pass
	// (run when the NEXT event arrives): both 2112000-drains and the
	// 4096000-prediction are emitted while processing the write at
	// 5120000, in predictor-then-queue order. The 7232000-drain comes
	// before the write at that instant.
	want := []string{
		"write page=0 at=0 aux=-1",
		"pril_insert page=0 at=0 aux=1",
		"write page=1 at=1000 aux=-1",
		"pril_insert page=1 at=1000 aux=2",
		"predict page=0 at=2048000 aux=0",
		"test_queued page=0 at=2048000 aux=2112000",
		"predict page=1 at=2048000 aux=0",
		"test_queued page=1 at=2048000 aux=2112000",
		"write page=1 at=2080000 aux=2079000",
		"test_aborted page=1 at=2080000 aux=0",
		"pril_insert page=1 at=2080000 aux=1",
		"predict page=1 at=4096000 aux=0",
		"test_queued page=1 at=4096000 aux=4160000",
		"test_drained page=0 at=2112000 aux=1",
		"refresh_to_lo page=0 at=2112000 aux=0",
		"test_drained page=1 at=2112000 aux=1",
		"refresh_to_lo page=1 at=2112000 aux=0",
		"write page=0 at=5120000 aux=5120000",
		"refresh_to_hi page=0 at=5120000 aux=3008000",
		"pril_insert page=0 at=5120000 aux=1",
		"write page=1 at=6143997 aux=4063997",
		"refresh_to_hi page=1 at=6143997 aux=4031997",
		"pril_insert page=1 at=6143997 aux=2",
		"write page=1 at=6143998 aux=1",
		"pril_evict page=1 at=6143998 aux=0",
		"write page=1 at=6143999 aux=1",
		"predict page=0 at=7168000 aux=0",
		"test_queued page=0 at=7168000 aux=7232000",
		"write page=1 at=7169000 aux=1025001",
		"pril_insert page=1 at=7169000 aux=1",
		"write page=1 at=7170000 aux=1000",
		"pril_evict page=1 at=7170000 aux=0",
		"test_drained page=0 at=7232000 aux=1",
		"refresh_to_lo page=0 at=7232000 aux=0",
		"write page=1 at=7232000 aux=62000",
		"run_done page=0 at=8192000 aux=0",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("event stream changed:\ngot:\n  %s\nwant:\n  %s",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
	if eng.settledWrites != 1 {
		t.Errorf("%d writes took the settled path, want 1 (at 6143999)", eng.settledWrites)
	}
}

// TestObserverOrderingRepeatable replays the same trace twice and
// requires identical streams — the cheap guard against map-order or
// time-dependent leakage into the event path.
func TestObserverOrderingRepeatable(t *testing.T) {
	run := func() []obs.Event {
		var rec obs.Recorder
		cfg := cfgForTest()
		cfg.NumPages = 4
		eng, err := New(cfg, WithObserver(&rec),
			WithClock(func() time.Time { return time.Unix(0, 0) }))
		if err != nil {
			t.Fatal(err)
		}
		tr := &trace.Trace{
			Name:     "repeat",
			Duration: 8 * q,
			Events: []trace.Event{
				{Page: 0, At: 0}, {Page: 1, At: 10}, {Page: 2, At: 20},
				{Page: 3, At: q + 5}, {Page: 0, At: 3 * q}, {Page: 2, At: 5 * q},
			},
		}
		if _, err := eng.RunContext(context.Background(), tr); err != nil {
			t.Fatal(err)
		}
		return rec.Events()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("event %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Fatal("no events recorded")
	}
	last := a[len(a)-1]
	if last.Kind != obs.KindRunDone {
		t.Errorf("last event = %v, want run_done", last)
	}
	if last.Aux != 0 {
		t.Errorf("run_done wall ns = %d, want 0 under the frozen clock", last.Aux)
	}
}

// TestRunContextCancellation verifies a cancelled context stops both
// entry points between event batches.
func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	events := make([]trace.Event, 2*ctxCheckStride)
	for i := range events {
		events[i] = trace.Event{Page: 0, At: trace.Microseconds(i)}
	}
	tr := &trace.Trace{Name: "cancelled", Duration: q, Events: events}

	if _, err := RunContext(ctx, tr, cfgForTest()); err != context.Canceled {
		t.Errorf("RunContext error = %v, want context.Canceled", err)
	}

	eng, err := New(cfgForTest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunContext(ctx, tr); err != context.Canceled {
		t.Errorf("Engine.RunContext error = %v, want context.Canceled", err)
	}

	// A nil context must behave as context.Background().
	eng2, err := New(cfgForTest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.RunContext(nil, tr); err != nil { //nolint:staticcheck // nil ctx tolerance is part of the API
		t.Errorf("nil-context run failed: %v", err)
	}
}

// TestObserverDisabledMatchesEnabled guards the zero-cost path: the
// report must be identical with and without an observer attached.
func TestObserverDisabledMatchesEnabled(t *testing.T) {
	tr := &trace.Trace{
		Name:     "paired",
		Duration: 6 * q,
		Events: []trace.Event{
			{Page: 0, At: 0}, {Page: 1, At: 500}, {Page: 0, At: 3 * q},
		},
	}
	plain, err := RunWith(tr, cfgForTest())
	if err != nil {
		t.Fatal(err)
	}
	var rec obs.Recorder
	observed, err := RunWith(tr, cfgForTest(), WithObserver(&rec))
	if err != nil {
		t.Fatal(err)
	}
	if plain != observed {
		t.Errorf("observer changed the report:\nplain:    %+v\nobserved: %+v", plain, observed)
	}
	if len(rec.Events()) == 0 {
		t.Error("observer saw no events")
	}
}
