package core

import (
	"math"
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
