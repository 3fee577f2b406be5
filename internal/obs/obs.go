// Package obs is the observability layer of the MEMCON reproduction:
// a structured event stream for the engine lifecycle plus an aggregated
// metrics registry with JSON, Prometheus and human-table sinks.
//
// The package is designed around two hard constraints:
//
//   - Zero cost when disabled. Every instrumented subsystem holds a
//     plain Observer interface value and guards each emission with a
//     nil check; events are value structs, so the enabled path does not
//     allocate either.
//   - Determinism under parallelism. A sweep's aggregated metrics must
//     be byte-identical for any worker count (the same contract
//     internal/parallel enforces for experiment output). All registry
//     updates are commutative — atomic integer adds, integer-domain
//     histogram observations, monotonic maxima — and anything
//     inherently schedule-dependent (wall-clock phase timings,
//     per-worker utilization) is marked volatile and excluded from the
//     machine-readable sinks.
//
// Event timestamps are simulated time (trace microseconds), never wall
// clock, so a recorded event stream is a reproducible artifact.
package obs

import (
	"fmt"
	"sync"
)

// Kind identifies one named engine-lifecycle event.
type Kind uint8

// The event catalogue. Aux is a kind-specific payload documented per
// kind; At is always simulated time in trace microseconds.
const (
	// KindWrite: the engine observed a program write. Aux is the
	// interval in microseconds since the page's previous write, or -1
	// for the page's first write.
	KindWrite Kind = iota
	// KindPredict: PRIL predicted the page's remaining write interval
	// long enough to amortize a test. Aux is unused (0).
	KindPredict
	// KindTestQueued: an online test started; the row is now idle for
	// one LO-REF window. Aux is the scheduled completion time (µs).
	KindTestQueued
	// KindTestDrained: an online test completed. Aux is 1 when the row
	// tested clean, 0 when the test found a data-dependent failure.
	KindTestDrained
	// KindTestAborted: an in-flight test expired before completing.
	// Aux is 0 when an intervening write aborted it, 1 when a
	// neighbour-retest voided it.
	KindTestAborted
	// KindRefreshToLo: a row transitioned HI-REF -> LO-REF after a
	// clean test. Aux is unused (0).
	KindRefreshToLo
	// KindRefreshToHi: a row transitioned LO-REF -> HI-REF because it
	// was written (or re-tested). Aux is the LO-REF dwell time (µs).
	KindRefreshToHi
	// KindPrilInsert: PRIL admitted a page into the current-quantum
	// write buffer. Aux is the buffer occupancy after the insert.
	KindPrilInsert
	// KindPrilEvict: PRIL removed a buffered page. Aux is 0 for a
	// same-quantum second write, 1 for a write in the next quantum.
	KindPrilEvict
	// KindPrilDiscard: the write buffer was full and the page was
	// dropped (it stays at HI-REF). Aux is the buffer capacity.
	KindPrilDiscard
	// KindRemapHit: the remap mitigation served a test. Aux is 0 when
	// an already-remapped row short-circuited its test, 1 when a
	// failing row was newly remapped to a spare.
	KindRemapHit
	// KindNeighborRetest: a write triggered a re-test of a physical
	// neighbour row holding a clean verdict. Aux is the neighbour page.
	KindNeighborRetest
	// KindRowFailure: a characterization read-back found a failing
	// row. Aux is the number of failing cells.
	KindRowFailure
	// KindRowWeak: the all-pattern scan classified a row as able to
	// fail under some content. Aux is unused (0).
	KindRowWeak
	// KindRunDone: an engine run finished. Aux is the wall-clock run
	// duration in nanoseconds (from the engine's injected clock), the
	// one Aux that is not simulated time.
	KindRunDone
	// KindRowActivation: a memory controller reported ACT commands (row
	// misses plus injected-test row cycles) for a simulation, aggregated.
	// Aux is the activation count.
	KindRowActivation
	// KindTestActivation: the test-traffic-attributable subset of
	// KindRowActivation. Aux is the activation count.
	KindTestActivation
	// KindMitigation: a RowHammer mitigation policy issued extra
	// neighbour-refresh operations. Aux is the operation count.
	KindMitigation
	// KindDisturbFailure: a read-disturb census found a victim row with
	// flipped cells. Aux is the number of flipped cells.
	KindDisturbFailure

	// numKinds bounds the catalogue; keep it last.
	numKinds
)

// kindNames maps kinds to their stable wire names (used by memcond's
// progress stream and the metric names derived from them).
var kindNames = [numKinds]string{
	KindWrite:          "write",
	KindPredict:        "predict",
	KindTestQueued:     "test_queued",
	KindTestDrained:    "test_drained",
	KindTestAborted:    "test_aborted",
	KindRefreshToLo:    "refresh_to_lo",
	KindRefreshToHi:    "refresh_to_hi",
	KindPrilInsert:     "pril_insert",
	KindPrilEvict:      "pril_evict",
	KindPrilDiscard:    "pril_discard",
	KindRemapHit:       "remap_hit",
	KindNeighborRetest: "neighbor_retest",
	KindRowFailure:     "row_failure",
	KindRowWeak:        "row_weak",
	KindRunDone:        "run_done",
	KindRowActivation:  "row_activation",
	KindTestActivation: "test_activation",
	KindMitigation:     "mitigation",
	KindDisturbFailure: "disturb_failure",
}

// String returns the kind's stable wire name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Kinds returns the full event catalogue in declaration order.
func Kinds() []Kind {
	ks := make([]Kind, numKinds)
	for i := range ks {
		ks[i] = Kind(i)
	}
	return ks
}

// Event is one structured engine-lifecycle event. It is a plain value
// struct so emitting one performs no allocation.
type Event struct {
	// Kind names the event.
	Kind Kind
	// Page is the page/row the event concerns (0 when not applicable).
	Page uint32
	// At is the simulated time in trace microseconds.
	At int64
	// Aux is the kind-specific payload; see the Kind constants.
	Aux int64
}

// String renders the event compactly for snapshots and logs.
func (e Event) String() string {
	return fmt.Sprintf("%s page=%d at=%d aux=%d", e.Kind, e.Page, e.At, e.Aux)
}

// Observer receives the structured event stream. Implementations must
// be safe for concurrent use: parallel sweeps share one observer
// across workers. Events from a single engine run arrive in
// deterministic order; events from concurrent runs interleave, so an
// observer that aggregates across runs must do so commutatively if the
// aggregate is expected to be schedule-independent (see Metrics).
type Observer interface {
	OnEvent(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// OnEvent implements Observer.
func (f ObserverFunc) OnEvent(e Event) { f(e) }

// Tee fans each event out to every non-nil observer in order. It
// returns nil when no non-nil observers remain, so the result can be
// installed directly and keeps the disabled fast path.
func Tee(obs ...Observer) Observer {
	kept := make([]Observer, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return teeObserver(kept)
}

type teeObserver []Observer

func (t teeObserver) OnEvent(e Event) {
	for _, o := range t {
		o.OnEvent(e)
	}
}

// Recorder is an Observer that captures the event stream, for tests
// and offline analysis.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// OnEvent implements Observer.
func (r *Recorder) OnEvent(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Events returns a copy of the captured stream.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Reset clears the captured stream.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.events = r.events[:0]
	r.mu.Unlock()
}
