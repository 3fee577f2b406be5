package core

import (
	"math"
	"slices"
	"testing"

	"memcon/internal/trace"
)

func TestReadOnlyRowsValidation(t *testing.T) {
	c := cfgForTest()
	c.ReadOnlyRows = -1
	if err := c.Validate(); err == nil {
		t.Error("negative read-only rows accepted")
	}
}

func TestReadOnlyRowsAccounting(t *testing.T) {
	tr := &trace.Trace{
		Duration: 10 * q,
		Events:   []trace.Event{{Page: 0, At: 0}},
	}
	cfg := cfgForTest()
	cfg.NumPages = 1
	cfg.ReadOnlyRows = 9
	rep, err := RunWith(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	if err := e.Retest(5, 0); err == nil {
		t.Error("out-of-range retest page accepted")
	}
	if err := e.Observe(trace.Event{Page: 0, At: q}); err != nil {
		t.Fatal(err)
	}
	if err := e.Retest(0, 0); err == nil {
		t.Error("retest in the past accepted")
	}
}

func TestRetestOnHiRefPageIsNoop(t *testing.T) {
	e, _ := New(cfgForTest())
	if err := e.Retest(0, 0); err != nil {
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
			if err := e.Retest(0, 3*q); err != nil {
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
	if err := e.Retest(0, 2060*ms); err != nil {
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
