package core

import (
	"math"
	"slices"
	"testing"

	"memcon/internal/dram"
	"memcon/internal/obs"
	"memcon/internal/trace"
)

func TestReadOnlyRowsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative read-only rows accepted")
		}
	}()
	Report{}.WithReadOnlyRows(-1, cfgForTest())
}

func TestReadOnlyRowsAccounting(t *testing.T) {
	tr := &trace.Trace{
		Duration: 10 * q,
		Events:   []trace.Event{{Page: 0, At: 0}},
	}
	cfg := cfgForTest()
	cfg.NumPages = 1
	rep, err := RunWith(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pages != 1 || rep.TestsCompleted != 1 {
		t.Fatalf("the engine reports %d pages and %d completed tests, want 1 and 1", rep.Pages, rep.TestsCompleted)
	}
	rep = rep.WithReadOnlyRows(9, cfg)
	if rep.Pages != 10 {
		t.Errorf("pages = %d, want 10 (1 written + 9 read-only)", rep.Pages)
	}
	// Read-only rows: tested once each, then LO for duration-64ms.
	if rep.TestsCompleted != 1+9 {
		t.Errorf("tests completed = %d, want 10", rep.TestsCompleted)
	}
	// Reduction approaches the upper bound as read-only rows dominate.
	if rep.RefreshReduction() < 0.70 {
		t.Errorf("reduction with 90%% read-only module = %v, want > 0.70", rep.RefreshReduction())
	}
	// Baseline scales with the full module.
	wantBase := 10.0 * float64(10*q) * 1000 / float64(16*1000*1000)
	if math.Abs(rep.BaselineOps-wantBase) > 1e-6 {
		t.Errorf("baseline ops = %v, want %v", rep.BaselineOps, wantBase)
	}
}

func TestRetestErrors(t *testing.T) {
	e, err := New(cfgForTest())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Retest(5); err == nil {
		t.Error("out-of-range retest page accepted")
	}
}

func TestRetestOnHiRefPageIsNoop(t *testing.T) {
	e, _ := New(cfgForTest())
	if err := e.Retest(0); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Finish(4 * q)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TestsStarted != 0 {
		t.Errorf("retest on an untested HI page started %d tests, want 0", rep.TestsStarted)
	}
}

// A re-test of a page whose test failed leaves it at HI-REF with no
// test in flight, so the call is a no-op: the failed test's verdict
// still settles as a correct prediction when the page stays idle.
func TestRetestAfterFailedTestKeepsVerdict(t *testing.T) {
	alwaysFail := TesterFunc(func(uint32, trace.Microseconds) bool { return false })
	for _, retest := range []bool{false, true} {
		cfg := cfgForTest()
		cfg.NumPages = 2
		e, err := New(cfg, WithTester(alwaysFail))
		if err != nil {
			t.Fatal(err)
		}
		// Page 0 is tested, and fails, at 2q plus one LO-REF window.
		if err := e.Observe(trace.Event{Page: 0, At: 0}); err != nil {
			t.Fatal(err)
		}
		if err := e.Observe(trace.Event{Page: 1, At: 3 * q}); err != nil {
			t.Fatal(err)
		}
		if loRef, testing := e.pageStatus(0); loRef || testing {
			t.Fatalf("at 3q page 0 has loRef=%v testing=%v, want HI-REF with no test", loRef, testing)
		}
		if retest {
			if err := e.Retest(0); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := e.Finish(10 * q)
		if err != nil {
			t.Fatal(err)
		}
		if rep.TestsCompleted != 2 || rep.TestsFailed != 2 {
			t.Fatalf("retest=%v: %d tests completed, %d failed; want 2 and 2", retest, rep.TestsCompleted, rep.TestsFailed)
		}
		if rep.CorrectTests != 2 || rep.MispredictedTests != 0 {
			t.Errorf("retest=%v: %d correct and %d mispredicted tests, want 2 and 0",
				retest, rep.CorrectTests, rep.MispredictedTests)
		}
	}
}

// A re-test of a page at LO-REF voids its passed test's protection and
// settles that test's verdict, as a write does: page 0, tested clean
// at 2q plus one LO-REF window, stays idle past MinWriteInterval
// before the re-test at 3q, so its first test was a correct
// prediction. Every completed test gets one verdict.
func TestRetestSettlesVoidedVerdict(t *testing.T) {
	cfg := cfgForTest()
	cfg.NumPages = 2
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Observe(trace.Event{Page: 0, At: 0}); err != nil {
		t.Fatal(err)
	}
	if err := e.Observe(trace.Event{Page: 1, At: 3 * q}); err != nil {
		t.Fatal(err)
	}
	if loRef, _ := e.pageStatus(0); !loRef {
		t.Fatal("at 3q page 0 is not at LO-REF")
	}
	if err := e.Retest(0); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Finish(10 * q)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TestsCompleted != 3 || rep.CorrectTests != 3 || rep.MispredictedTests != 0 {
		t.Errorf("%d tests completed, %d correct, %d mispredicted; want 3, 3 and 0",
			rep.TestsCompleted, rep.CorrectTests, rep.MispredictedTests)
	}
	checkAccounting(t, "retest", rep, cfg)
}

// An aborted test's cost is spent once: it counts in the mispredicted
// testing time, of which the aborted testing time is a part, and the
// total counts it once, whether a write or a re-test aborted it.
func TestAbortedTestCountsOnce(t *testing.T) {
	for _, retest := range []bool{false, true} {
		cfg := cfgForTest()
		cfg.NumPages = 2
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Page 0's test is queued at 2q; at 2q + 2 ms it is in flight.
		if err := e.Observe(trace.Event{Page: 0, At: 0}); err != nil {
			t.Fatal(err)
		}
		at := 2*q + 2*trace.Millisecond
		if retest {
			if err := e.Observe(trace.Event{Page: 1, At: at}); err != nil {
				t.Fatal(err)
			}
			if err := e.Retest(0); err != nil {
				t.Fatal(err)
			}
		} else if err := e.Observe(trace.Event{Page: 0, At: at}); err != nil {
			t.Fatal(err)
		}
		rep, err := e.Finish(at)
		if err != nil {
			t.Fatal(err)
		}
		cost := float64(cfg.costConfig().TestCost())
		if rep.TestsAborted != 1 || rep.TestingTimeAbortedNs != cost || rep.TestingTimeMispredNs != cost {
			t.Errorf("retest=%v: %d aborted, aborted %v ns, mispredicted %v ns; want 1, %v and %v",
				retest, rep.TestsAborted, rep.TestingTimeAbortedNs, rep.TestingTimeMispredNs, cost, cost)
		}
		if rep.TestingTimeNs() != cost {
			t.Errorf("retest=%v: testing time %v ns, want one test's %v", retest, rep.TestingTimeNs(), cost)
		}
	}
}

// TestPendingTestFIFOTieBreak pins the engine's drain order for tests
// that complete at the same instant: first-queued completes first, the
// order a hardware CAM drains in.
func TestPendingTestFIFOTieBreak(t *testing.T) {
	var rec obs.Recorder
	var tested []uint32
	tester := TesterFunc(func(page uint32, _ trace.Microseconds) bool {
		tested = append(tested, page)
		return true
	})
	cfg := cfgForTest()
	cfg.NumPages = 10
	e, err := New(cfg, WithTester(tester), WithObserver(&rec))
	if err != nil {
		t.Fatal(err)
	}
	observe := func(page uint32, at trace.Microseconds) {
		t.Helper()
		if err := e.Observe(trace.Event{Page: page, At: at}); err != nil {
			t.Fatal(err)
		}
	}
	// Pages written once in quantum 0 are predicted idle at 2q, and
	// their tests complete together one LO-REF window later.
	for i, page := range []uint32{9, 3, 7, 1} {
		observe(page, trace.Microseconds(i))
	}
	observe(0, 3*q)
	var queued []uint32
	for _, ev := range rec.Events() {
		if ev.Kind == obs.KindTestQueued {
			queued = append(queued, ev.Page)
		}
	}
	if len(queued) != 4 || !slices.Equal(tested, queued) {
		t.Errorf("tests queued for pages %v at 2q completed in page order %v", queued, tested)
	}
	// Re-tests issued at one instant complete together too.
	tested = nil
	for _, page := range []uint32{7, 3, 9} {
		if err := e.Retest(page); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Finish(4 * q); err != nil {
		t.Fatal(err)
	}
	if want := []uint32{7, 3, 9}; !slices.Equal(tested, want) {
		t.Errorf("re-tests completed in page order %v, want %v", tested, want)
	}
}

// The test queue holds only the tests in flight even when re-tests
// keep it from ever emptying: the drained head is compacted away.
func TestTestQueueHoldsOnlyTestsInFlight(t *testing.T) {
	cfg := cfgForTest()
	cfg.NumPages = 2
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Observe(trace.Event{Page: 0, At: 0}); err != nil {
		t.Fatal(err)
	}
	// Page 0's test is queued at 2q. Re-tested every half LO-REF window
	// from then on, its test never completes, and a voided one comes
	// due at every step.
	half := trace.Microseconds(cfg.LoRef/dram.Microsecond) / 2
	for i := range trace.Microseconds(1000) {
		if err := e.Observe(trace.Event{Page: 1, At: 2*q + i*half}); err != nil {
			t.Fatal(err)
		}
		if err := e.Retest(0); err != nil {
			t.Fatal(err)
		}
		if len(e.tests) > 4 {
			t.Fatalf("after %d re-tests the queue holds %d entries, %d of them drained", i+1, len(e.tests), e.head)
		}
	}
	if rep, err := e.Finish(e.now); err != nil || rep.TestsAborted != 1000 {
		t.Errorf("%d tests aborted (err %v), want 1000", rep.TestsAborted, err)
	}
}

func TestRetestVoidsLoRef(t *testing.T) {
	e, _ := New(cfgForTest())
	if err := e.Observe(trace.Event{Page: 0, At: 0}); err != nil {
		t.Fatal(err)
	}
	// Advance past prediction+test: page is at LO-REF.
	if err := e.Observe(trace.Event{Page: 0, At: 5 * q}); err != nil {
		t.Fatal(err)
	}
	// (the write itself demoted it; set up again)
	rep, err := e.Finish(10 * q)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: two tests (one per long idle).
	if rep.TestsStarted != 2 {
		t.Errorf("tests started = %d, want 2", rep.TestsStarted)
	}

	// Fresh engine: retest while LO-REF must abort LO and start a test.
	e2, _ := New(cfgForTest())
	e2.Observe(trace.Event{Page: 0, At: 0})
	// Force quantum processing to get the page to LO: feed another page.
	e2.Observe(trace.Event{Page: 0, At: 0}) // duplicate at same time: multi-write, never predicted
	rep2, _ := e2.Finish(10 * q)
	if rep2.TestsStarted != 0 {
		t.Errorf("multi-write page was tested %d times, want 0", rep2.TestsStarted)
	}
}

// A re-test of a page whose test is in flight voids that test, and its
// queued completion with it: the page's test completes one LO-REF
// window after the re-test, not when the voided test would have.
func TestRetestOfInFlightTestCompletesLate(t *testing.T) {
	const ms = trace.Millisecond
	var done []trace.Microseconds
	tester := TesterFunc(func(_ uint32, at trace.Microseconds) bool {
		done = append(done, at)
		return true
	})
	cfg := cfgForTest()
	cfg.NumPages = 2
	e, err := New(cfg, WithTester(tester))
	if err != nil {
		t.Fatal(err)
	}
	observe := func(page uint32, at trace.Microseconds) {
		t.Helper()
		if err := e.Observe(trace.Event{Page: page, At: at}); err != nil {
			t.Fatal(err)
		}
	}
	// Page 0, written once in quantum 0, is predicted idle at 2048 ms;
	// its test would complete at 2112 ms.
	observe(0, 0)
	observe(1, 2060*ms) // a neighbour's write re-tests page 0
	if err := e.Retest(0); err != nil {
		t.Fatal(err)
	}
	observe(1, 2118*ms)
	if loRef, testing := e.pageStatus(0); loRef || !testing {
		t.Errorf("at 2118 ms page 0 has loRef=%v testing=%v, want its re-test in flight", loRef, testing)
	}
	rep, err := e.Finish(4 * q)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(done, []trace.Microseconds{2124 * ms}) {
		t.Errorf("tests completed at %v µs, want only the re-test at 2124 ms", done)
	}
	if want := float64(4*q - 2124*ms); rep.LoRefTime != want {
		t.Errorf("LO-REF time = %v µs, want %v (from the re-test's completion)", rep.LoRefTime, want)
	}
}

func TestFailingTestStillCountsTowardsPredictionAccuracy(t *testing.T) {
	// A failing test followed by a long idle still amortizes (the page
	// stayed idle; MEMCON just could not relax it).
	tr := &trace.Trace{Duration: 10 * q, Events: []trace.Event{{Page: 0, At: 0}}}
	alwaysFail := TesterFunc(func(uint32, trace.Microseconds) bool { return false })
	rep, err := RunWith(tr, cfgForTest(), WithTester(alwaysFail))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorrectTests != 1 {
		t.Errorf("correct tests = %d, want 1 (idle exceeded MWI)", rep.CorrectTests)
	}
}

func TestEngineWithBoundedBuffer(t *testing.T) {
	tr := &trace.Trace{Duration: 6 * q}
	for p := uint32(0); p < 50; p++ {
		tr.Events = append(tr.Events, trace.Event{Page: p, At: trace.Microseconds(p)})
	}
	cfg := cfgForTest()
	cfg.BufferCap = 10
	rep, err := RunWith(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pril.Discards != 40 {
		t.Errorf("discards = %d, want 40", rep.Pril.Discards)
	}
	if rep.TestsStarted != 10 {
		t.Errorf("tests = %d, want 10 (buffer capacity)", rep.TestsStarted)
	}
}
