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
	// NumPages is the starting page space. Every entry point grows it
	// to the largest page written, up to MaxPages.
	NumPages int
}

// MaxPages bounds the engine's page space at 16 Mi pages, a 64 GiB
// memory of 4 KiB pages and about 0.5 GiB of engine and PRIL state. A
// write to a page at or beyond it fails the run before anything grows.
const MaxPages = 1 << 24

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
	if c.NumPages <= 0 || c.NumPages > MaxPages {
		return fmt.Errorf("core: page count must be in [1, %d], got %d", MaxPages, c.NumPages)
	}
	if c.BufferCap < 0 {
		return fmt.Errorf("core: buffer capacity cannot be negative, got %d", c.BufferCap)
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
	// test aborts when its page is written or re-tested during the test
	// window.
	TestsStarted   int64
	TestsCompleted int64
	TestsAborted   int64
	// TestsFailed counts completed tests that found a failure (row kept
	// at HI-REF).
	TestsFailed int64
	// CorrectTests/MispredictedTests split completed tests by whether
	// the page then stayed idle at least MinWriteInterval; every
	// completed test gets one verdict.
	CorrectTests      int64
	MispredictedTests int64

	// LoRefTime is the page-time spent at LO-REF (µs·pages).
	LoRefTime float64
	// TestingTimeCorrectNs and TestingTimeMispredNs split the latency
	// spent on test accesses by prediction correctness: correct
	// completed tests, and mispredicted or aborted ones.
	// TestingTimeAbortedNs is the aborted part of TestingTimeMispredNs.
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
	return r.TestingTimeCorrectNs + r.TestingTimeMispredNs
}

// RefreshTimeNs returns the latency MEMCON spends on refresh
// operations.
func (r Report) RefreshTimeNs() float64 {
	return r.RefreshOps * float64(dram.DDR31600().RefreshCost())
}

// BaselineRefreshTimeNs returns the latency the baseline spends on
// refresh operations (for the Fig. 18 normalization).
func (r Report) BaselineRefreshTimeNs() float64 {
	return r.BaselineOps * float64(dram.DDR31600().RefreshCost())
}

// WithReadOnlyRows folds the rest of the module into a finished
// report: rows that hold static (read-only) content and are never
// written during the run. MEMCON tests each once at startup, the test
// occupying the first LO-REF window, and keeps it at LO-REF for the
// rest of the run (§6.1: the LO-REF state applies to rows identified
// as read-only, besides rows predicted idle). They widen the
// refresh-accounting denominators the way a real module, much larger
// than a workload's written footprint, does. cfg is the configuration
// the report was run with. It panics on a negative row count.
func (r Report) WithReadOnlyRows(rows int, cfg Config) Report {
	if rows < 0 {
		panic("core: read-only rows cannot be negative")
	}
	roLo := max(float64(r.Duration)-float64(cfg.LoRef/dram.Microsecond), 0)
	r.LoRefTime += float64(rows) * roLo
	r.TestsStarted += int64(rows)
	r.TestsCompleted += int64(rows)
	r.CorrectTests += int64(rows)
	r.TestingTimeCorrectNs += float64(rows) * float64(cfg.costConfig().TestCost())
	r.Pages += rows
	r.countRefreshes(cfg)
	return r
}

// countRefreshes sets the refresh-operation counts from the duration,
// the page count and the LO-REF page-time: LO-REF page-time at the LO
// rate, the rest at HI.
func (r *Report) countRefreshes(cfg Config) {
	durNs := float64(r.Duration) * float64(dram.Microsecond)
	pages := float64(r.Pages)
	loNs := r.LoRefTime * float64(dram.Microsecond)
	hiNs := durNs*pages - loNs
	r.RefreshOps = hiNs/float64(cfg.HiRef) + loNs/float64(cfg.LoRef)
	r.BaselineOps = durNs * pages / float64(cfg.HiRef)
	r.UpperBoundOps = durNs * pages / float64(cfg.LoRef)
}

// pendingTest is a queued test completion.
type pendingTest struct {
	page uint32
	done trace.Microseconds
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
	cfg    Config
	tester Tester
	pred   *pril.Predictor
	pages  []pageState
	// tests[head:] are the queued test completions, in the order they
	// complete. Every test lasts one LO-REF window from the instant it
	// is queued, and tests are queued in time order: at quantum
	// boundaries, which lie after the engine's clock, and by Retest at
	// the clock. So a FIFO drains them by (completion, queue order),
	// the order a hardware CAM drains in.
	tests    []pendingTest
	head     int
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
}

// engineOptions collects the optional engine dependencies.
type engineOptions struct {
	tester Tester
	obs    obs.Observer
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
		mwi:      mwi,
		testCost: cfg.costConfig().TestCost(),
		obs:      eo.obs,
	}
	if e.obs != nil {
		pred.SetObserver(e.obs)
	}
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

// grow extends the engine's page space to pages, more than it holds,
// preserving all state. New entries start in the initial (zero) state.
func (e *Engine) grow(pages int) {
	e.pages = append(e.pages, make([]pageState, pages-len(e.pages))...)
	e.pred.Grow(pages)
}

// onPredict is invoked by PRIL at quantum boundaries for pages predicted
// to stay idle: MEMCON initiates a test with the current content.
func (e *Engine) onPredict(page uint32, at trace.Microseconds) {
	st := &e.pages[page]
	if st.testing || st.loRef {
		return // already under test or already relaxed
	}
	if e.obs != nil {
		e.obs.OnEvent(obs.Event{Kind: obs.KindPredict, Page: page, At: int64(at)})
	}
	e.startTest(st, page, at)
}

// startTest tests page with its current content from at. The test
// occupies one LO-REF window (the row is deliberately kept idle so
// victims are tested at lowest charge, §3.2), and its completion joins
// the back of the queue.
func (e *Engine) startTest(st *pageState, page uint32, at trace.Microseconds) {
	done := at + trace.Microseconds(e.cfg.LoRef/dram.Microsecond)
	st.testing, st.loSince = true, done
	e.rep.TestsStarted++
	e.tests = append(e.tests, pendingTest{page: page, done: done})
	if e.obs != nil {
		e.obs.OnEvent(obs.Event{Kind: obs.KindTestQueued, Page: page, At: int64(at), Aux: int64(done)})
	}
}

// abortTest voids page's test in flight at at: a write (aux 0) or a
// re-test (aux 1) changed the content under test. Its completion stays
// queued and is skipped when it comes due. The test's cost is spent on
// a misprediction, and counts in the aborted part too.
func (e *Engine) abortTest(st *pageState, page uint32, at trace.Microseconds, aux int64) {
	st.testing = false
	e.rep.TestsAborted++
	e.rep.TestingTimeMispredNs += float64(e.testCost)
	e.rep.TestingTimeAbortedNs += float64(e.testCost)
	if e.obs != nil {
		e.obs.OnEvent(obs.Event{Kind: obs.KindTestAborted, Page: page, At: int64(at), Aux: aux})
	}
}

// leaveLoRef pulls page's row back to HI-REF at at, closing its LO-REF
// stay.
func (e *Engine) leaveLoRef(st *pageState, page uint32, at trace.Microseconds) {
	st.loRef = false
	e.rep.LoRefTime += float64(at - st.loSince)
	if e.obs != nil {
		e.obs.OnEvent(obs.Event{Kind: obs.KindRefreshToHi, Page: page, At: int64(at), Aux: int64(at - st.loSince)})
	}
}

// settle gives the page's last completed test, if its verdict is still
// open, its verdict at at: correct when the page stayed idle at least
// MinWriteInterval after the test, mispredicted otherwise (§6.4). A
// failed test counts too: the page stayed idle, MEMCON just could not
// relax it.
func (e *Engine) settle(st *pageState, at trace.Microseconds) {
	if !st.tested {
		return
	}
	st.tested = false
	if dram.Nanoseconds(at-st.testedAt)*dram.Microsecond >= e.mwi {
		e.rep.CorrectTests++
		e.rep.TestingTimeCorrectNs += float64(e.testCost)
	} else {
		e.rep.MispredictedTests++
		e.rep.TestingTimeMispredNs += float64(e.testCost)
	}
}

// drainTests completes every queued test due by now, and compacts the
// queue once its head passes half its length, so the queue holds only
// the tests in flight even when it never empties.
func (e *Engine) drainTests(now trace.Microseconds) {
	for e.head < len(e.tests) && e.tests[e.head].done <= now {
		t := e.tests[e.head]
		e.head++
		st := &e.pages[t.page]
		if !st.testing || t.done != st.loSince {
			continue // aborted by a write or a re-test
		}
		st.testing = false
		st.testedAt, st.tested = t.done, true
		e.rep.TestsCompleted++
		if e.tester.Test(t.page, t.done) {
			st.loRef = true // since t.done, which loSince holds
			if e.obs != nil {
				e.obs.OnEvent(obs.Event{Kind: obs.KindTestDrained, Page: t.page, At: int64(t.done), Aux: 1})
				e.obs.OnEvent(obs.Event{Kind: obs.KindRefreshToLo, Page: t.page, At: int64(t.done)})
			}
		} else {
			// Mitigation: the row stays at HI-REF.
			e.rep.TestsFailed++
			if e.obs != nil {
				e.obs.OnEvent(obs.Event{Kind: obs.KindTestDrained, Page: t.page, At: int64(t.done), Aux: 0})
			}
		}
	}
	if 2*e.head > len(e.tests) {
		e.tests = e.tests[:copy(e.tests, e.tests[e.head:])]
		e.head = 0
	}
}

// Observe processes one write event in time order, growing the page
// space to its page.
func (e *Engine) Observe(ev trace.Event) error {
	return e.replay([]trace.Event{ev})
}

// replay processes events in time order: the one loop every write
// takes, from Observe, RunContext and RunSource. A repeat write to the
// settled page at or after the clock and before the horizon takes the
// settled path in the loop itself: no quantum ends and no test
// completes first, the page sits at HI-REF with no test in flight and
// no verdict pending, and PRIL only counts it. Every other write takes
// the full path, write.
func (e *Engine) replay(evs []trace.Event) error {
	for _, ev := range evs {
		if ev.Page == e.settled && ev.At < e.horizon && ev.At >= e.now {
			e.now = ev.At
			e.pred.CountWrite()
			e.settledWrites++
			if e.obs != nil {
				st := &e.pages[ev.Page]
				e.obs.OnEvent(obs.Event{Kind: obs.KindWrite, Page: ev.Page, At: int64(ev.At), Aux: int64(ev.At - st.lastWrite)})
				st.lastWrite = ev.At
			}
			continue
		}
		if err := e.write(ev); err != nil {
			return err
		}
	}
	return nil
}

// write is the full path of a write: it checks the event, grows the
// page space to it, advances PRIL and the test queue, and applies it.
func (e *Engine) write(ev trace.Event) error {
	if int(ev.Page) >= len(e.pages) {
		if ev.Page >= MaxPages {
			return fmt.Errorf("core: page %d at or beyond the bound of %d pages", ev.Page, MaxPages)
		}
		e.grow(int(ev.Page) + 1)
	}
	if ev.At < e.now {
		return fmt.Errorf("core: event at %d before engine time %d", ev.At, e.now)
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

	// The write changes the content: it aborts a test in flight, pulls
	// a LO-REF row back to HI-REF until re-tested, and settles the last
	// completed test's verdict.
	switch {
	case st.testing:
		e.abortTest(st, ev.Page, ev.At, 0)
	case st.loRef:
		e.leaveLoRef(st, ev.Page, ev.At)
	}
	e.settle(st, ev.At)
	if err := e.pred.Observe(ev); err != nil {
		return err
	}
	if end, ok := e.pred.Settled(ev.Page); ok {
		if e.head < len(e.tests) && e.tests[e.head].done < end {
			end = e.tests[e.head].done
		}
		e.settled, e.horizon = ev.Page, end
	}
	return nil
}

// Retest voids a page's current protection at the engine's clock and
// immediately starts a new test with its current content, without
// counting a program write. The full-fidelity System calls this for the
// physical neighbours of a written row, right after observing the write
// (their aggressor content changed, so an earlier clean verdict no
// longer applies). A test in flight aborts, as on a write; a page at
// LO-REF returns to HI-REF and its passed test is settled, as on a
// write. No-op for pages at HI-REF with no test in flight — they carry
// no stale verdict to void, and a failed test's pending verdict still
// counts toward prediction accuracy.
func (e *Engine) Retest(page uint32) error {
	if int(page) >= len(e.pages) {
		return fmt.Errorf("core: retest page %d outside configured space of %d", page, len(e.pages))
	}
	st := &e.pages[page]
	switch {
	case st.testing:
		e.abortTest(st, page, e.now, 1)
	case st.loRef:
		e.leaveLoRef(st, page, e.now)
	default:
		return nil
	}
	e.settle(st, e.now)
	e.horizon = 0 // the new test can complete before the horizon
	e.startTest(st, page, e.now)
	return nil
}

// ctxCheckStride bounds how many events a replay processes between
// context polls — the same between-units cancellation granularity the
// internal/parallel pool provides for sweeps. A replay polls ctx once
// per batch it hands the engine loop, so no batch is larger.
const ctxCheckStride = 4096

// sourceBatch is how many events RunSource reads from its source at a
// time: 4 KiB of events, the size of the decoder's own window. A
// 64 KiB batch raised the trace-replay benchmark's peak RSS by 24 %
// (EXPERIMENTS.md, "Batched stream decode").
const sourceBatch = 256

// RunContext replays a whole trace, checking ctx between event batches
// so a cancelled run stops promptly (the engine is left mid-run and
// should be discarded). A nil ctx means context.Background().
func (e *Engine) RunContext(ctx context.Context, tr *trace.Trace) (Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	for evs := tr.Events; len(evs) > 0; {
		if err := ctx.Err(); err != nil {
			return Report{}, err
		}
		n := min(len(evs), ctxCheckStride)
		if err := e.replay(evs[:n]); err != nil {
			return Report{}, err
		}
		evs = evs[n:]
	}
	return e.finishRun(tr.Duration, start)
}

// Finish flushes predictor quanta and pending tests up to end and
// produces the final report over the engine's pages.
func (e *Engine) Finish(end trace.Microseconds) (Report, error) {
	if end < e.now {
		return Report{}, fmt.Errorf("core: finish time %d before engine time %d", end, e.now)
	}
	e.horizon = 0
	e.pred.Finish(end)
	e.drainTests(end)
	e.now = end

	// Close LO-REF stays and settle open verdicts: a page that stayed
	// idle to the end amortized its test. A test still in flight counts
	// as started but neither completed nor aborted.
	for i := range e.pages {
		st := &e.pages[i]
		if st.loRef {
			e.rep.LoRefTime += float64(end - st.loSince)
			st.loRef = false
		}
		e.settle(st, end)
		st.testing = false
	}
	e.rep.Duration = end
	e.rep.Pages = len(e.pages)
	e.rep.countRefreshes(e.cfg)
	e.rep.Pril = e.pred.Stats()
	return e.rep, nil
}

// RunWith is the batch entry point: it replays the trace through a
// fresh engine, which starts at cfg.NumPages (zero means start minimal)
// and grows to the trace's page space, and returns the report.
func RunWith(tr *trace.Trace, cfg Config, opts ...EngineOption) (Report, error) {
	return RunContext(context.Background(), tr, cfg, opts...)
}

// RunContext is RunWith under a cancellation context.
func RunContext(ctx context.Context, tr *trace.Trace, cfg Config, opts ...EngineOption) (Report, error) {
	cfg.NumPages = max(cfg.NumPages, 1)
	e, err := New(cfg, opts...)
	if err != nil {
		return Report{}, err
	}
	return e.RunContext(ctx, tr)
}

// RunSource replays a streaming event source through the engine,
// growing the page space, up to MaxPages, as the source reveals it, so a
// multi-GB trace replays with O(pages) memory. It reads the source
// sourceBatch events at a time and replays each batch through the
// engine loop, checking ctx before every read; a nil ctx means
// context.Background(). Events the source decoded before a failure are
// replayed before the failure returns, and a read that returns neither
// an event nor an error fails the run with io.ErrNoProgress. The run
// finishes at the source's declared duration. The replay is CPU-bound:
// replaying the twelve application traces at scale 0.1 costs about
// 12–13 ns per event on a 2-vCPU Xeon with Go 1.24, decoding included.
func (e *Engine) RunSource(ctx context.Context, src trace.Source) (Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	buf := make([]trace.Event, sourceBatch)
	for {
		if err := ctx.Err(); err != nil {
			return Report{}, err
		}
		n, err := src.Read(buf)
		if n == 0 && err == nil {
			return Report{}, fmt.Errorf("core: source %q read no events: %w", src.Name(), io.ErrNoProgress)
		}
		if rerr := e.replay(buf[:n]); rerr != nil {
			return Report{}, rerr
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return Report{}, err
		}
	}
	return e.finishRun(src.Duration(), start)
}

// finishRun finishes a replay at end and reports to the observer the
// wall time since start.
func (e *Engine) finishRun(end trace.Microseconds, start time.Time) (Report, error) {
	rep, err := e.Finish(end)
	if err != nil {
		return Report{}, err
	}
	if e.obs != nil {
		e.obs.OnEvent(obs.Event{Kind: obs.KindRunDone, At: int64(end), Aux: time.Since(start).Nanoseconds()})
	}
	return rep, nil
}

// RunSource is the streaming batch entry point: the engine starts at
// cfg.NumPages (zero means start minimal) and grows as the stream
// reveals its page space.
func RunSource(ctx context.Context, src trace.Source, cfg Config, opts ...EngineOption) (Report, error) {
	cfg.NumPages = max(cfg.NumPages, 1)
	e, err := New(cfg, opts...)
	if err != nil {
		return Report{}, err
	}
	return e.RunSource(ctx, src)
}
