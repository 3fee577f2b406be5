package core

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"memcon/internal/dram"
	"memcon/internal/pril"
	"memcon/internal/trace"
)

// This file freezes the engine as it was before the flat-state
// rewrite: eagerly initialized page entries and a separate lastWrite
// model (here irrelevant — no observer). The accounting logic is
// copied verbatim, with two later fixes: a re-test settles the verdict
// it voids and charges an aborted test as mispredicted, as a write
// does. Its test queue is a binary heap ordered by (completion, queue
// order), and it folds in the module's read-only rows itself. The
// differential test replays identical traces through the frozen engine
// and the live one — fresh and streaming — and demands identical
// reports.
// (The predictor rewrite is pinned separately in internal/pril.)

type frozenPageState struct {
	loRef    bool
	loSince  trace.Microseconds
	testing  bool
	testedAt trace.Microseconds
}

// frozenTest is a queued test completion; seq is the queue order.
type frozenTest struct {
	page uint32
	done trace.Microseconds
	seq  uint64
}

// frozenQueue is the frozen engine's test queue, a container/heap min-heap.
type frozenQueue []frozenTest

func (q frozenQueue) Len() int { return len(q) }
func (q frozenQueue) Less(i, j int) bool {
	if q[i].done != q[j].done {
		return q[i].done < q[j].done
	}
	return q[i].seq < q[j].seq
}
func (q frozenQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *frozenQueue) Push(x any)   { *q = append(*q, x.(frozenTest)) }
func (q *frozenQueue) Pop() any {
	old := *q
	t := old[len(old)-1]
	*q = old[:len(old)-1]
	return t
}

type frozenEngine struct {
	cfg      Config
	tester   Tester
	pred     *pril.Predictor
	pages    []frozenPageState
	tests    frozenQueue
	seq      uint64
	mwi      dram.Nanoseconds
	testCost dram.Nanoseconds
	now      trace.Microseconds
	rep      Report
	// readOnlyRows is the rest of the module, folded in by finish.
	readOnlyRows int
}

func newFrozenEngine(cfg Config, tester Tester) (*frozenEngine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
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
	e := &frozenEngine{
		cfg:      cfg,
		tester:   tester,
		pred:     pred,
		pages:    make([]frozenPageState, cfg.NumPages),
		mwi:      mwi,
		testCost: cfg.costConfig().TestCost(),
	}
	for i := range e.pages {
		e.pages[i].testedAt = -1
	}
	e.rep.Pages = cfg.NumPages
	e.rep.MinWriteInterval = mwi
	pred.OnPredict(e.onPredict)
	return e, nil
}

func (e *frozenEngine) onPredict(page uint32, at trace.Microseconds) {
	st := &e.pages[page]
	if st.testing || st.loRef {
		return
	}
	st.testing = true
	e.rep.TestsStarted++
	done := at + trace.Microseconds(e.cfg.LoRef/dram.Microsecond)
	st.loSince = done
	e.seq++
	heap.Push(&e.tests, frozenTest{page: page, done: done, seq: e.seq})
}

func (e *frozenEngine) drainTests(now trace.Microseconds) {
	for len(e.tests) > 0 && e.tests[0].done <= now {
		t := heap.Pop(&e.tests).(frozenTest)
		st := &e.pages[t.page]
		if !st.testing || t.done != st.loSince {
			continue
		}
		st.testing = false
		e.rep.TestsCompleted++
		if e.tester.Test(t.page, t.done) {
			st.loRef = true
			st.loSince = t.done
			st.testedAt = t.done
		} else {
			e.rep.TestsFailed++
			st.testedAt = t.done
		}
	}
}

func (e *frozenEngine) observe(ev trace.Event) error {
	if int(ev.Page) >= len(e.pages) {
		return fmt.Errorf("core: page %d outside configured space of %d", ev.Page, len(e.pages))
	}
	if ev.At < e.now {
		return fmt.Errorf("core: event at %d before engine time %d", ev.At, e.now)
	}
	e.pred.Finish(ev.At)
	e.drainTests(ev.At)
	e.now = ev.At

	st := &e.pages[ev.Page]
	if st.testing {
		st.testing = false
		e.rep.TestsAborted++
		e.rep.TestingTimeMispredNs += float64(e.testCost)
		e.rep.TestingTimeAbortedNs += float64(e.testCost)
	}
	if st.loRef {
		st.loRef = false
		e.rep.LoRefTime += float64(ev.At - st.loSince)
	}
	if st.testedAt >= 0 {
		idleNs := dram.Nanoseconds(ev.At-st.testedAt) * dram.Microsecond
		if idleNs < e.mwi {
			e.rep.MispredictedTests++
			e.rep.TestingTimeMispredNs += float64(e.testCost)
		} else {
			e.rep.CorrectTests++
			e.rep.TestingTimeCorrectNs += float64(e.testCost)
		}
		st.testedAt = -1
	}
	return e.pred.Observe(ev)
}

// retest is Engine.Retest as it was before its transitions got one body
// each, in the frozen state layout (testedAt -1 for no pending verdict)
// and without the observer calls, with the two fixes: the aborted test
// counts as mispredicted and the voided verdict is settled.
func (e *frozenEngine) retest(page uint32, at trace.Microseconds) error {
	if int(page) >= len(e.pages) {
		return fmt.Errorf("core: retest page %d outside configured space of %d", page, len(e.pages))
	}
	if at < e.now {
		return fmt.Errorf("core: retest at %d before engine time %d", at, e.now)
	}
	st := &e.pages[page]
	if !st.loRef && !st.testing {
		return nil
	}
	if st.testing {
		st.testing = false
		e.rep.TestsAborted++
		e.rep.TestingTimeMispredNs += float64(e.testCost)
		e.rep.TestingTimeAbortedNs += float64(e.testCost)
	}
	if st.loRef {
		st.loRef = false
		e.rep.LoRefTime += float64(at - st.loSince)
	}
	if st.testedAt >= 0 {
		idleNs := dram.Nanoseconds(at-st.testedAt) * dram.Microsecond
		if idleNs < e.mwi {
			e.rep.MispredictedTests++
			e.rep.TestingTimeMispredNs += float64(e.testCost)
		} else {
			e.rep.CorrectTests++
			e.rep.TestingTimeCorrectNs += float64(e.testCost)
		}
		st.testedAt = -1
	}
	st.testing = true
	e.rep.TestsStarted++
	done := at + trace.Microseconds(e.cfg.LoRef/dram.Microsecond)
	st.loSince = done
	e.seq++
	heap.Push(&e.tests, frozenTest{page: page, done: done, seq: e.seq})
	return nil
}

func (e *frozenEngine) finish(end trace.Microseconds) (Report, error) {
	if end < e.now {
		return Report{}, fmt.Errorf("core: finish time %d before engine time %d", end, e.now)
	}
	e.pred.Finish(end)
	e.drainTests(end)
	e.now = end

	for i := range e.pages {
		st := &e.pages[i]
		if st.loRef {
			e.rep.LoRefTime += float64(end - st.loSince)
			st.loRef = false
		}
		if st.testedAt >= 0 {
			idleNs := dram.Nanoseconds(end-st.testedAt) * dram.Microsecond
			if idleNs >= e.mwi {
				e.rep.CorrectTests++
				e.rep.TestingTimeCorrectNs += float64(e.testCost)
			} else {
				e.rep.MispredictedTests++
				e.rep.TestingTimeMispredNs += float64(e.testCost)
			}
			st.testedAt = -1
		}
		if st.testing {
			st.testing = false
		}
	}

	if ro := e.readOnlyRows; ro > 0 {
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
	e.rep.Pages = len(e.pages) + e.readOnlyRows
	durNs := float64(end) * float64(dram.Microsecond)
	pages := float64(e.rep.Pages)
	loNs := e.rep.LoRefTime * float64(dram.Microsecond)
	hiNs := durNs*pages - loNs
	e.rep.RefreshOps = hiNs/float64(e.cfg.HiRef) + loNs/float64(e.cfg.LoRef)
	e.rep.BaselineOps = durNs * pages / float64(e.cfg.HiRef)
	e.rep.UpperBoundOps = durNs * pages / float64(e.cfg.LoRef)
	e.rep.Pril = e.pred.Stats()
	return e.rep, nil
}

// engineDiffTrace generates a deterministic trace exercising the full
// engine state machine: predictions, test aborts (writes during the
// LO-REF test window), LO-REF pull-backs, and misprediction windows.
func engineDiffTrace(seed int64, pages int, quantum trace.Microseconds, quanta int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &trace.Trace{Name: fmt.Sprintf("engdiff-%d", seed), Duration: quantum * trace.Microseconds(quanta)}
	// Touch the top page so a streaming replay grows to the same page
	// space the materialized configuration declares.
	tr.Events = append(tr.Events, trace.Event{Page: uint32(pages - 1), At: 0})
	for qi := 0; qi < quanta; qi++ {
		base := quantum * trace.Microseconds(qi)
		writes := 30 + rng.Intn(150)
		for i := 0; i < writes; i++ {
			page := uint32(rng.Intn(pages))
			at := base + trace.Microseconds(rng.Int63n(int64(quantum)))
			tr.Events = append(tr.Events, trace.Event{Page: page, At: at})
			// Re-write some pages 1-3 quanta later to hit pages that are
			// mid-test or already at LO-REF.
			if rng.Intn(3) == 0 {
				later := at + trace.Microseconds(rng.Int63n(3*int64(quantum)))
				if later < tr.Duration {
					tr.Events = append(tr.Events, trace.Event{Page: page, At: later})
				}
			}
		}
	}
	tr.Sort()
	return tr
}

// flakyTester fails a deterministic subset of tests so the HI-REF
// mitigation path diverges from AlwaysPass.
func flakyTester(mod uint32) Tester {
	return TesterFunc(func(page uint32, _ trace.Microseconds) bool { return page%mod != 0 })
}

// TestDifferentialAgainstFrozenEngine pins the engine to the frozen
// pre-rewrite engine across seeds × quanta × buffer caps, through the
// fresh and streaming entry points.
func TestDifferentialAgainstFrozenEngine(t *testing.T) {
	quanta := []trace.Microseconds{512 * trace.Millisecond, 1024 * trace.Millisecond, 2048 * trace.Millisecond}
	caps := []int{0, 5, 64}
	for seed := int64(1); seed <= 4; seed++ {
		for _, quantum := range quanta {
			for _, bufCap := range caps {
				cfg := DefaultConfig()
				cfg.Quantum = quantum
				cfg.BufferCap = bufCap
				cfg.NumPages = 256
				const readOnlyRows = 64
				tester := flakyTester(7)
				tr := engineDiffTrace(seed, cfg.NumPages, quantum, 8)
				name := fmt.Sprintf("seed=%d quantum=%dms cap=%d", seed, quantum/trace.Millisecond, bufCap)

				frozen, err := newFrozenEngine(cfg, tester)
				if err != nil {
					t.Fatal(err)
				}
				frozen.readOnlyRows = readOnlyRows
				for _, ev := range tr.Events {
					if err := frozen.observe(ev); err != nil {
						t.Fatal(err)
					}
				}
				want, err := frozen.finish(tr.Duration)
				if err != nil {
					t.Fatal(err)
				}

				// Fresh engine.
				eng, err := New(cfg, WithTester(tester))
				if err != nil {
					t.Fatal(err)
				}
				got, err := eng.RunContext(context.Background(), tr)
				if err != nil {
					t.Fatal(err)
				}
				if got = got.WithReadOnlyRows(readOnlyRows, cfg); got != want {
					t.Fatalf("%s: fresh run diverges:\n got %+v\nwant %+v", name, got, want)
				}
				checkAccounting(t, name, got, cfg)

				// Both batch entry points, started at one page so the
				// run grows its page space as the events reveal it:
				// the in-memory trace, and compact bytes through the
				// Source path.
				small := cfg
				small.NumPages = 1
				got, err = RunContext(context.Background(), tr, small, WithTester(tester))
				if err != nil {
					t.Fatal(err)
				}
				if got = got.WithReadOnlyRows(readOnlyRows, cfg); got != want {
					t.Fatalf("%s: grown in-memory run diverges:\n got %+v\nwant %+v", name, got, want)
				}
				got, err = RunSource(nil, compactStream(t, tr), small, WithTester(tester))
				if err != nil {
					t.Fatal(err)
				}
				if got = got.WithReadOnlyRows(readOnlyRows, cfg); got != want {
					t.Fatalf("%s: streaming run diverges:\n got %+v\nwant %+v", name, got, want)
				}
			}
		}
	}
}
