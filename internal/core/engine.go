// Package core implements the MEMCON engine — the paper's primary
// contribution. MEMCON ensures correct DRAM operation against
// data-dependent failures using only the CURRENT memory content:
//
//   - every row starts (and returns on every write) to the aggressive
//     HI-REF refresh rate, under which no data-dependent failure can
//     manifest;
//   - the PRIL predictor watches the write stream and flags pages whose
//     remaining write interval is predicted long enough to amortize a
//     test (≥ MinWriteInterval, §3.3);
//   - a flagged page is tested with its current content: the row is kept
//     idle for one LO-REF window and read back (Read-and-Compare or
//     Copy-and-Compare);
//   - rows that test clean move to LO-REF until their next write; rows
//     that fail stay at HI-REF (the mitigation).
//
// The engine is trace-driven and accounts refresh operations, testing
// time, LO-REF coverage and prediction accuracy — the §6.1/§6.4
// quantities. Whether a test passes is delegated to a Tester, so the
// engine runs both in fast accounting mode (synthetic outcomes) and
// against the full dram+faults silicon model (see System).
package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"memcon/internal/costmodel"
	"memcon/internal/dram"
	"memcon/internal/obs"
	"memcon/internal/pril"
	"memcon/internal/trace"
)

// Tester decides the outcome of a MEMCON online test of a page with its
// current content. It returns true when the page has no data-dependent
// failure (row may move to LO-REF).
type Tester interface {
	Test(page uint32, at trace.Microseconds) bool
}

// TesterFunc adapts a function to the Tester interface.
type TesterFunc func(page uint32, at trace.Microseconds) bool

// Test implements Tester.
func (f TesterFunc) Test(page uint32, at trace.Microseconds) bool { return f(page, at) }

// AlwaysPass is the accounting-mode tester: every test finds no failure.
var AlwaysPass Tester = TesterFunc(func(uint32, trace.Microseconds) bool { return true })

// Config parameterizes the engine.
type Config struct {
	// Quantum is PRIL's quantum (and therefore the current-interval
	// length threshold); the paper evaluates 512/1024/2048 ms.
	Quantum trace.Microseconds
	// HiRef is the aggressive refresh interval (16 ms).
	HiRef dram.Nanoseconds
	// LoRef is the relaxed refresh interval for clean tested rows (64 ms).
	LoRef dram.Nanoseconds
	// Mode selects the test mode and with it the per-test cost.
	Mode costmodel.TestMode
	// BufferCap bounds PRIL's write buffers (0 = unbounded).
	BufferCap int
	// NumPages is the page space; traces are auto-sized when larger.
	NumPages int
	// ReadOnlyRows models the rest of the module: rows that hold static
	// (read-only) content and are never written during the run. MEMCON
	// tests each once at startup and keeps it at LO-REF thereafter
	// (§6.1: the LO-REF state applies to rows identified as read-only,
	// besides rows predicted idle). They widen the refresh-accounting
	// denominators the way a real module — much larger than a
	// workload's written footprint — does.
	ReadOnlyRows int
}

// DefaultConfig returns the paper's primary configuration: 1024 ms
// quantum, HI-REF 16 ms, LO-REF 64 ms, Read-and-Compare.
func DefaultConfig() Config {
	return Config{
		Quantum:   1024 * trace.Millisecond,
		HiRef:     dram.RefreshWindowAggressive,
		LoRef:     dram.RefreshWindowDefault,
		Mode:      costmodel.ReadCompare,
		BufferCap: 0,
		NumPages:  1,
	}
}

// Validate reports an error for unusable configurations.
func (c Config) Validate() error {
	if c.Quantum <= 0 {
		return fmt.Errorf("core: quantum must be positive, got %d", c.Quantum)
	}
	if c.HiRef <= 0 || c.LoRef <= c.HiRef {
		return fmt.Errorf("core: need 0 < HiRef (%d) < LoRef (%d)", c.HiRef, c.LoRef)
	}
	if c.NumPages <= 0 {
		return fmt.Errorf("core: page count must be positive, got %d", c.NumPages)
	}
	if c.BufferCap < 0 {
		return fmt.Errorf("core: buffer capacity cannot be negative, got %d", c.BufferCap)
	}
	if c.ReadOnlyRows < 0 {
		return fmt.Errorf("core: read-only rows cannot be negative, got %d", c.ReadOnlyRows)
	}
	return nil
}

// costConfig builds the cost-model view of this configuration.
func (c Config) costConfig() costmodel.Config {
	return costmodel.Config{
		Timing:        dram.DDR31600(),
		HiRefInterval: c.HiRef,
		LoRefInterval: c.LoRef,
		Mode:          c.Mode,
	}
}

// Report is the outcome of one engine run — the §6.1/§6.4 metrics.
type Report struct {
	// Duration is the simulated time.
	Duration trace.Microseconds
	// Pages is the tracked page count.
	Pages int

	// RefreshOps is the number of refresh operations MEMCON issued.
	RefreshOps float64
	// BaselineOps is the all-rows HI-REF refresh operation count.
	BaselineOps float64
	// UpperBoundOps is the all-rows LO-REF count (the 75% floor).
	UpperBoundOps float64

	// TestsStarted/TestsCompleted/TestsAborted count online tests; a
	// test aborts when its page is written during the test window.
	TestsStarted   int64
	TestsCompleted int64
	TestsAborted   int64
	// TestsFailed counts completed tests that found a failure (row kept
	// at HI-REF).
	TestsFailed int64
	// CorrectTests/MispredictedTests split completed tests by whether
	// the page then stayed idle at least MinWriteInterval.
	CorrectTests      int64
	MispredictedTests int64

	// LoRefTime is the page-time spent at LO-REF (µs·pages).
	LoRefTime float64
	// TestingTimeNs is the latency spent on test accesses, split by
	// prediction correctness.
	TestingTimeCorrectNs float64
	TestingTimeMispredNs float64
	TestingTimeAbortedNs float64

	// MinWriteInterval is the amortization threshold used.
	MinWriteInterval dram.Nanoseconds

	// Pril is the predictor's bookkeeping.
	Pril pril.Stats
}

// RefreshReduction returns the fractional refresh reduction vs the
// HI-REF baseline.
func (r Report) RefreshReduction() float64 {
	if r.BaselineOps <= 0 {
		return 0
	}
	return 1 - r.RefreshOps/r.BaselineOps
}

// UpperBoundReduction returns the best achievable reduction (all rows at
// LO-REF all the time).
func (r Report) UpperBoundReduction() float64 {
	if r.BaselineOps <= 0 {
		return 0
	}
	return 1 - r.UpperBoundOps/r.BaselineOps
}

// LoRefCoverage returns the fraction of page-time spent at LO-REF —
// Fig. 17's coverage metric.
func (r Report) LoRefCoverage() float64 {
	total := float64(r.Duration) * float64(r.Pages)
	if total <= 0 {
		return 0
	}
	return r.LoRefTime / total
}

// TestingTimeNs returns the total testing latency.
func (r Report) TestingTimeNs() float64 {
	return r.TestingTimeCorrectNs + r.TestingTimeMispredNs + r.TestingTimeAbortedNs
}

// BaselineRefreshTimeNs returns the latency the baseline spends on
// refresh operations (for the Fig. 18 normalization).
func (r Report) BaselineRefreshTimeNs() float64 {
	return r.BaselineOps * float64(dram.DDR31600().RefreshCost())
}

// pendingTest is a scheduled test completion. seq is the scheduling
// order, used as the tie-break so tests that complete at the same
// instant drain oldest-first (the order a hardware CAM drains in).
type pendingTest struct {
	page uint32
	done trace.Microseconds
	seq  uint64
}

// lessPendingTest orders the engine's test queue: by completion time,
// then by scheduling order for equal completion times.
func lessPendingTest(a, b pendingTest) bool {
	if a.done != b.done {
		return a.done < b.done
	}
	return a.seq < b.seq
}

// pageState tracks MEMCON's view of one page/row. The zero value is
// the initial state: HI-REF, no test, no history.
type pageState struct {
	// loRef is true while the row runs at the relaxed rate.
	loRef bool
	// testing is true while a test is in flight.
	testing bool
	// tested is true while testedAt holds a completed test whose
	// verdict has not been settled yet.
	tested bool
	// written is true once the page has been written.
	written bool
	// loSince is when the row entered LO-REF (valid when loRef), or
	// the completion time of the test in flight (valid when testing):
	// only the queue entry at that time may complete it.
	loSince trace.Microseconds
	// testedAt is the completion time of the last test (for
	// misprediction accounting; valid when tested).
	testedAt trace.Microseconds
	// lastWrite is the page's previous write time (valid when
	// written), feeding the write-interval observability payload.
	lastWrite trace.Microseconds
}

// Engine is the trace-driven MEMCON engine.
type Engine struct {
	cfg      Config
	tester   Tester
	pred     *pril.Predictor
	pages    []pageState
	tests    pqueue[pendingTest]
	seq      uint64
	mwi      dram.Nanoseconds
	testCost dram.Nanoseconds
	now      trace.Microseconds
	rep      Report

	// settled is the page the last full-path write left settled (see
	// pril.Predictor.Settled), and horizon the first instant that can
	// change that: its quantum's end or the next queued test
	// completion, whichever comes first. Zero means none.
	settled uint32
	horizon trace.Microseconds
	// settledWrites counts the writes that took the settled path.
	settledWrites int64

	// obs receives structured lifecycle events; nil disables the event
	// path entirely (every emission is behind a nil check and events
	// are value structs, so the disabled engine pays one branch).
	obs obs.Observer
	// clock supplies wall time for the run-duration event; injectable
	// for deterministic tests. Only consulted when obs is set.
	clock func() time.Time
}

// engineOptions collects the optional engine dependencies.
type engineOptions struct {
	tester Tester
	obs    obs.Observer
	clock  func() time.Time
}

// EngineOption customizes engine construction (see New).
type EngineOption func(*engineOptions)

// WithTester installs the online-test oracle. A nil tester (or no
// WithTester option at all) selects AlwaysPass, the accounting mode.
func WithTester(t Tester) EngineOption {
	return func(o *engineOptions) { o.tester = t }
}

// WithObserver installs a structured-event observer on the engine
// lifecycle (writes, predictions, test queue/drain/abort, HI-REF and
// LO-REF transitions). A nil observer disables observation; the
// disabled event path costs a nil check and performs no allocation.
func WithObserver(o obs.Observer) EngineOption {
	return func(eo *engineOptions) { eo.obs = o }
}

// WithClock injects the wall-clock source used for the run-duration
// observability event (obs.KindRunDone). A nil clock selects time.Now.
// The clock never influences simulation results — simulated time comes
// exclusively from the trace.
func WithClock(now func() time.Time) EngineOption {
	return func(o *engineOptions) { o.clock = now }
}

// applyEngineOptions folds the options over the defaults.
func applyEngineOptions(opts []EngineOption) engineOptions {
	var eo engineOptions
	for _, opt := range opts {
		if opt != nil {
			opt(&eo)
		}
	}
	if eo.tester == nil {
		eo.tester = AlwaysPass
	}
	if eo.clock == nil {
		eo.clock = time.Now
	}
	return eo
}

// New builds an engine over the configuration with functional options:
//
//	eng, err := core.New(cfg, core.WithTester(t), core.WithObserver(o))
//
// It is the constructor the public memcon facade wraps.
func New(cfg Config, opts ...EngineOption) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eo := applyEngineOptions(opts)
	mwi, err := cfg.costConfig().MinWriteInterval()
	if err != nil {
		return nil, err
	}
	pred, err := pril.New(pril.Config{
		Quantum:   cfg.Quantum,
		NumPages:  cfg.NumPages,
		BufferCap: cfg.BufferCap,
	})
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:      cfg,
		tester:   eo.tester,
		pred:     pred,
		pages:    make([]pageState, cfg.NumPages),
		tests:    newPQueue(lessPendingTest),
		mwi:      mwi,
		testCost: cfg.costConfig().TestCost(),
		obs:      eo.obs,
		clock:    eo.clock,
	}
	if e.obs != nil {
		pred.SetObserver(e.obs)
	}
	e.rep.Pages = cfg.NumPages
	e.rep.MinWriteInterval = mwi
	pred.OnPredict(e.onPredict)
	return e, nil
}

// pageStatus reports whether page currently runs at LO-REF and whether
// a test is in flight; out-of-range pages read as the initial
// HI-REF/idle state. It is the read-only probe System uses on its
// neighbour-retest and audit paths.
func (e *Engine) pageStatus(page uint32) (loRef, testing bool) {
	if int(page) >= len(e.pages) {
		return false, false
	}
	st := &e.pages[page]
	return st.loRef, st.testing
}

// grow extends the engine's page space to at least pages, preserving
// all state; the streaming replay calls it as the source reveals its
// page space. New entries start in the initial (zero) state.
func (e *Engine) grow(pages int) {
	if pages <= len(e.pages) {
		return
	}
	e.pages = append(e.pages, make([]pageState, pages-len(e.pages))...)
	e.pred.Grow(pages)
	e.cfg.NumPages = pages
	e.rep.Pages = pages
}

// onPredict is invoked by PRIL at quantum boundaries for pages predicted
// to stay idle: MEMCON initiates a test with the current content. The
// test occupies one LO-REF window (the row is deliberately kept idle so
// victims are tested at lowest charge, §3.2).
func (e *Engine) onPredict(page uint32, at trace.Microseconds) {
	st := &e.pages[page]
	if st.testing || st.loRef {
		return // already under test or already relaxed
	}
	st.testing = true
	e.rep.TestsStarted++
	done := at + trace.Microseconds(e.cfg.LoRef/dram.Microsecond)
	st.loSince = done
	e.schedule(page, done)
	if e.obs != nil {
		e.obs.OnEvent(obs.Event{Kind: obs.KindPredict, Page: page, At: int64(at)})
		e.obs.OnEvent(obs.Event{Kind: obs.KindTestQueued, Page: page, At: int64(at), Aux: int64(done)})
	}
}

// schedule enqueues a test completion.
func (e *Engine) schedule(page uint32, done trace.Microseconds) {
	e.seq++
	e.tests.Push(pendingTest{page: page, done: done, seq: e.seq})
}

// drainTests completes every scheduled test up to time now.
func (e *Engine) drainTests(now trace.Microseconds) {
	for e.tests.Len() > 0 && e.tests.Peek().done <= now {
		t := e.tests.Pop()
		st := &e.pages[t.page]
		if !st.testing || t.done != st.loSince {
			continue // aborted by a write or a re-test
		}
		st.testing = false
		e.rep.TestsCompleted++
		if e.tester.Test(t.page, t.done) {
			st.loRef = true // since t.done, which loSince holds
			st.testedAt, st.tested = t.done, true
			if e.obs != nil {
				e.obs.OnEvent(obs.Event{Kind: obs.KindTestDrained, Page: t.page, At: int64(t.done), Aux: 1})
				e.obs.OnEvent(obs.Event{Kind: obs.KindRefreshToLo, Page: t.page, At: int64(t.done)})
			}
		} else {
			e.rep.TestsFailed++
			// Mitigation: the row stays at HI-REF. The test itself was
			// still a correct prediction cost-wise if the page stays
			// idle; count it via testedAt as well.
			st.testedAt, st.tested = t.done, true
			if e.obs != nil {
				e.obs.OnEvent(obs.Event{Kind: obs.KindTestDrained, Page: t.page, At: int64(t.done), Aux: 0})
			}
		}
	}
}

// Observe processes one write event in time order.
func (e *Engine) Observe(ev trace.Event) error {
	if int(ev.Page) >= len(e.pages) {
		return fmt.Errorf("core: page %d outside configured space of %d", ev.Page, len(e.pages))
	}
	if ev.At < e.now {
		return fmt.Errorf("core: event at %d before engine time %d", ev.At, e.now)
	}
	// A repeat write to a settled page before the horizon: no quantum
	// ends and no test completes first, the page sits at HI-REF with no
	// test in flight and no verdict pending, and PRIL only counts it.
	if ev.Page == e.settled && ev.At < e.horizon {
		e.now = ev.At
		e.pred.CountWrite()
		e.settledWrites++
		if e.obs != nil {
			st := &e.pages[ev.Page]
			e.obs.OnEvent(obs.Event{Kind: obs.KindWrite, Page: ev.Page, At: int64(ev.At), Aux: int64(ev.At - st.lastWrite)})
			st.lastWrite = ev.At
		}
		return nil
	}
	// Advance the predictor to the event time FIRST so that quantum
	// boundaries (and the predictions they emit) are processed in time
	// order before this write, then complete any tests that finished
	// before the write arrived.
	e.pred.Finish(ev.At)
	e.drainTests(ev.At)
	e.now = ev.At

	st := &e.pages[ev.Page]
	if e.obs != nil {
		gap := int64(-1)
		if st.written {
			gap = int64(ev.At - st.lastWrite)
		}
		st.lastWrite, st.written = ev.At, true
		e.obs.OnEvent(obs.Event{Kind: obs.KindWrite, Page: ev.Page, At: int64(ev.At), Aux: gap})
	}

	// A write to an in-test row aborts the test: the content changed.
	if st.testing {
		st.testing = false
		e.rep.TestsAborted++
		e.rep.TestingTimeMispredNs += float64(e.testCost)
		e.rep.TestingTimeAbortedNs += float64(e.testCost)
		if e.obs != nil {
			e.obs.OnEvent(obs.Event{Kind: obs.KindTestAborted, Page: ev.Page, At: int64(ev.At), Aux: 0})
		}
	}
	// A write to a LO-REF row pulls it back to HI-REF until re-tested.
	if st.loRef {
		st.loRef = false
		e.rep.LoRefTime += float64(ev.At - st.loSince)
		if e.obs != nil {
			e.obs.OnEvent(obs.Event{Kind: obs.KindRefreshToHi, Page: ev.Page, At: int64(ev.At), Aux: int64(ev.At - st.loSince)})
		}
	}
	// Misprediction accounting for the last completed test.
	if st.tested {
		idleNs := dram.Nanoseconds(ev.At-st.testedAt) * dram.Microsecond
		if idleNs < e.mwi {
			e.rep.MispredictedTests++
			e.rep.TestingTimeMispredNs += float64(e.testCost)
		} else {
			e.rep.CorrectTests++
			e.rep.TestingTimeCorrectNs += float64(e.testCost)
		}
		st.tested = false
	}
	if err := e.pred.Observe(ev); err != nil {
		return err
	}
	if end, ok := e.pred.Settled(ev.Page); ok {
		if e.tests.Len() > 0 && e.tests.Peek().done < end {
			end = e.tests.Peek().done
		}
		e.settled, e.horizon = ev.Page, end
	}
	return nil
}

// Retest voids a page's current protection and immediately starts a new
// test with its current content, without counting a program write. The
// full-fidelity System calls this for the physical neighbours of a
// written row (their aggressor content changed, so an earlier clean
// verdict no longer applies). No-op for pages at HI-REF with no test in
// flight — they carry no stale verdict to void, and a failed test's
// pending verdict still counts toward prediction accuracy.
func (e *Engine) Retest(page uint32, at trace.Microseconds) error {
	if int(page) >= len(e.pages) {
		return fmt.Errorf("core: retest page %d outside configured space of %d", page, len(e.pages))
	}
	if at < e.now {
		return fmt.Errorf("core: retest at %d before engine time %d", at, e.now)
	}
	e.horizon = 0 // the test it may queue can complete before the horizon
	st := &e.pages[page]
	if !st.loRef && !st.testing {
		return nil
	}
	if st.testing {
		st.testing = false
		e.rep.TestsAborted++
		e.rep.TestingTimeAbortedNs += float64(e.testCost)
		if e.obs != nil {
			e.obs.OnEvent(obs.Event{Kind: obs.KindTestAborted, Page: page, At: int64(at), Aux: 1})
		}
	}
	if st.loRef {
		st.loRef = false
		e.rep.LoRefTime += float64(at - st.loSince)
		if e.obs != nil {
			e.obs.OnEvent(obs.Event{Kind: obs.KindRefreshToHi, Page: page, At: int64(at), Aux: int64(at - st.loSince)})
		}
	}
	st.tested = false
	st.testing = true
	e.rep.TestsStarted++
	done := at + trace.Microseconds(e.cfg.LoRef/dram.Microsecond)
	st.loSince = done
	e.schedule(page, done)
	if e.obs != nil {
		e.obs.OnEvent(obs.Event{Kind: obs.KindTestQueued, Page: page, At: int64(at), Aux: int64(done)})
	}
	return nil
}

// ctxCheckStride bounds how many events RunContext processes between
// context polls — the same between-units cancellation granularity the
// internal/parallel pool provides for sweeps.
const ctxCheckStride = 4096

// RunContext replays a whole trace, checking ctx between event batches
// so a cancelled run stops promptly (the engine is left mid-run and
// should be discarded). A nil ctx means context.Background().
func (e *Engine) RunContext(ctx context.Context, tr *trace.Trace) (Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var start time.Time
	if e.obs != nil {
		start = e.clock()
	}
	for i, ev := range tr.Events {
		if i%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return Report{}, err
			}
		}
		if err := e.Observe(ev); err != nil {
			return Report{}, err
		}
	}
	rep, err := e.Finish(tr.Duration)
	if err != nil {
		return Report{}, err
	}
	if e.obs != nil {
		e.obs.OnEvent(obs.Event{Kind: obs.KindRunDone, At: int64(tr.Duration), Aux: e.clock().Sub(start).Nanoseconds()})
	}
	return rep, nil
}

// Finish flushes predictor quanta and pending tests up to end and
// produces the final report.
func (e *Engine) Finish(end trace.Microseconds) (Report, error) {
	if end < e.now {
		return Report{}, fmt.Errorf("core: finish time %d before engine time %d", end, e.now)
	}
	e.horizon = 0
	e.pred.Finish(end)
	e.drainTests(end)
	e.now = end

	// Close LO-REF segments and settle outstanding test verdicts: a
	// page that stayed idle to the end amortized its test.
	for i := range e.pages {
		st := &e.pages[i]
		if st.loRef {
			e.rep.LoRefTime += float64(end - st.loSince)
			st.loRef = false
		}
		if st.tested {
			idleNs := dram.Nanoseconds(end-st.testedAt) * dram.Microsecond
			if idleNs >= e.mwi {
				e.rep.CorrectTests++
				e.rep.TestingTimeCorrectNs += float64(e.testCost)
			} else {
				e.rep.MispredictedTests++
				e.rep.TestingTimeMispredNs += float64(e.testCost)
			}
			st.tested = false
		}
		if st.testing {
			// Test still in flight at the end; count it as started but
			// neither completed nor aborted.
			st.testing = false
		}
	}

	// Fold in the module's read-only rows: each is tested once at
	// startup (the test occupies the first LO-REF window) and stays at
	// LO-REF for the remainder of the run.
	if ro := e.cfg.ReadOnlyRows; ro > 0 {
		loRefUs := float64(e.cfg.LoRef / dram.Microsecond)
		roLo := float64(end) - loRefUs
		if roLo < 0 {
			roLo = 0
		}
		e.rep.LoRefTime += float64(ro) * roLo
		e.rep.TestsStarted += int64(ro)
		e.rep.TestsCompleted += int64(ro)
		e.rep.CorrectTests += int64(ro)
		e.rep.TestingTimeCorrectNs += float64(ro) * float64(e.testCost)
	}

	e.rep.Duration = end
	e.rep.Pages = len(e.pages) + e.cfg.ReadOnlyRows
	durNs := float64(end) * float64(dram.Microsecond)
	pages := float64(e.rep.Pages)
	// Refresh ops: LO-REF page-time at the LO rate, the rest at HI.
	loNs := e.rep.LoRefTime * float64(dram.Microsecond)
	hiNs := durNs*pages - loNs
	e.rep.RefreshOps = hiNs/float64(e.cfg.HiRef) + loNs/float64(e.cfg.LoRef)
	e.rep.BaselineOps = durNs * pages / float64(e.cfg.HiRef)
	e.rep.UpperBoundOps = durNs * pages / float64(e.cfg.LoRef)
	e.rep.Pril = e.pred.Stats()
	return e.rep, nil
}

// RunWith is the batch entry point: it sizes the engine to the trace,
// replays it, and returns the report.
func RunWith(tr *trace.Trace, cfg Config, opts ...EngineOption) (Report, error) {
	return RunContext(context.Background(), tr, cfg, opts...)
}

// RunContext is RunWith under a cancellation context.
func RunContext(ctx context.Context, tr *trace.Trace, cfg Config, opts ...EngineOption) (Report, error) {
	if max := tr.MaxPage(); max >= cfg.NumPages {
		cfg.NumPages = max + 1
	}
	e, err := New(cfg, opts...)
	if err != nil {
		return Report{}, err
	}
	return e.RunContext(ctx, tr)
}

// RunSource replays a streaming event source through the engine,
// growing the page space on demand as the source reveals it, so a
// multi-GB trace replays with O(pages) memory. The replay is
// CPU-bound, and decoding a compact stream, tens of ns per event, is
// the larger share of it: most writes repeat a settled page, which the
// engine only counts. ctx is checked every ctxCheckStride events; a
// nil ctx means context.Background(). The run finishes at the source's
// declared duration.
func (e *Engine) RunSource(ctx context.Context, src trace.Source) (Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var start time.Time
	if e.obs != nil {
		start = e.clock()
	}
	for i := 0; ; i++ {
		if i%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return Report{}, err
			}
		}
		ev, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Report{}, err
		}
		if int(ev.Page) >= len(e.pages) {
			e.grow(int(ev.Page) + 1)
		}
		if err := e.Observe(ev); err != nil {
			return Report{}, err
		}
	}
	rep, err := e.Finish(src.Duration())
	if err != nil {
		return Report{}, err
	}
	if e.obs != nil {
		e.obs.OnEvent(obs.Event{Kind: obs.KindRunDone, At: int64(src.Duration()), Aux: e.clock().Sub(start).Nanoseconds()})
	}
	return rep, nil
}

// RunSource is the streaming batch entry point: the engine starts at
// cfg.NumPages (a floor; zero means start minimal) and grows as the
// stream reveals its page space.
func RunSource(ctx context.Context, src trace.Source, cfg Config, opts ...EngineOption) (Report, error) {
	if cfg.NumPages <= 0 {
		cfg.NumPages = 1
	}
	e, err := New(cfg, opts...)
	if err != nil {
		return Report{}, err
	}
	return e.RunSource(ctx, src)
}
