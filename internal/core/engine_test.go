package core

import (
	"math"
	"testing"

	"memcon/internal/costmodel"
	"memcon/internal/dram"
	"memcon/internal/trace"
)

const q = 1024 * trace.Millisecond

func cfgForTest() Config {
	c := DefaultConfig()
	c.Quantum = q
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Quantum: 0, HiRef: 1, LoRef: 2, NumPages: 1},
		{Quantum: q, HiRef: 0, LoRef: 2, NumPages: 1},
		{Quantum: q, HiRef: 2, LoRef: 2, NumPages: 1},
		{Quantum: q, HiRef: 1, LoRef: 2, NumPages: 0},
		{Quantum: q, HiRef: 1, LoRef: 2, NumPages: 1, BufferCap: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted invalid config")
	}
}

func TestSingleIdlePageGoesLoRef(t *testing.T) {
	tr := &trace.Trace{
		Name:     "one-page",
		Duration: 20 * q,
		Events:   []trace.Event{{Page: 0, At: 0}},
	}
	rep, err := RunWith(tr, cfgForTest())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TestsStarted != 1 || rep.TestsCompleted != 1 {
		t.Fatalf("tests started/completed = %d/%d, want 1/1", rep.TestsStarted, rep.TestsCompleted)
	}
	if rep.TestsAborted != 0 || rep.TestsFailed != 0 {
		t.Errorf("aborted/failed = %d/%d, want 0/0", rep.TestsAborted, rep.TestsFailed)
	}
	// Prediction at 2q, test completes at 2q + 64ms; LO-REF until 20q.
	wantLo := float64(18*q - 64*trace.Millisecond)
	if math.Abs(rep.LoRefTime-wantLo) > 1 {
		t.Errorf("LoRefTime = %v, want %v", rep.LoRefTime, wantLo)
	}
	if rep.CorrectTests != 1 || rep.MispredictedTests != 0 {
		t.Errorf("correct/mispredicted = %d/%d, want 1/0", rep.CorrectTests, rep.MispredictedTests)
	}
	// Reduction: page spends 90% of time at LO (18/20 quanta), so the
	// reduction approaches 0.75*0.9.
	red := rep.RefreshReduction()
	if red < 0.6 || red > 0.75 {
		t.Errorf("refresh reduction = %v, want in (0.6, 0.75)", red)
	}
	if ub := rep.UpperBoundReduction(); math.Abs(ub-0.75) > 1e-9 {
		t.Errorf("upper bound = %v, want 0.75", ub)
	}
}

func TestWritePullsRowBackToHiRef(t *testing.T) {
	tr := &trace.Trace{
		Name:     "rewrite",
		Duration: 10 * q,
		Events: []trace.Event{
			{Page: 0, At: 0},
			{Page: 0, At: 5 * q}, // long idle, then rewrite
		},
	}
	rep, err := RunWith(tr, cfgForTest())
	if err != nil {
		t.Fatal(err)
	}
	// Two tests: one after the first write (predicted at 2q), aborted?
	// No: completed at 2q+64ms, LO until the write at 5q. Second write
	// predicted at 7q, LO until end.
	if rep.TestsCompleted != 2 {
		t.Fatalf("completed tests = %d, want 2", rep.TestsCompleted)
	}
	if rep.CorrectTests != 2 {
		t.Errorf("correct tests = %d, want 2 (both idles exceed MWI)", rep.CorrectTests)
	}
	wantLo := float64(3*q-64*trace.Millisecond) + float64(3*q-64*trace.Millisecond)
	if math.Abs(rep.LoRefTime-wantLo) > 1 {
		t.Errorf("LoRefTime = %v, want %v", rep.LoRefTime, wantLo)
	}
}

func TestWriteDuringTestAborts(t *testing.T) {
	// Write at 0 predicts a test at 2q; a write during (2q, 2q+64ms)
	// aborts the in-flight test.
	tr := &trace.Trace{
		Name:     "abort",
		Duration: 4 * q,
		Events: []trace.Event{
			{Page: 0, At: 0},
			{Page: 0, At: 2*q + 10*trace.Millisecond},
		},
	}
	rep, err := RunWith(tr, cfgForTest())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TestsAborted != 1 {
		t.Errorf("aborted = %d, want 1", rep.TestsAborted)
	}
	if rep.TestingTimeAbortedNs <= 0 {
		t.Error("aborted test cost not accounted")
	}
}

func TestFailingTestKeepsHiRef(t *testing.T) {
	tr := &trace.Trace{
		Name:     "faulty",
		Duration: 10 * q,
		Events:   []trace.Event{{Page: 0, At: 0}},
	}
	alwaysFail := TesterFunc(func(uint32, trace.Microseconds) bool { return false })
	rep, err := RunWith(tr, cfgForTest(), WithTester(alwaysFail))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TestsFailed != 1 {
		t.Fatalf("failed tests = %d, want 1", rep.TestsFailed)
	}
	if rep.LoRefTime != 0 {
		t.Errorf("LoRefTime = %v, want 0 (failing row mitigated at HI-REF)", rep.LoRefTime)
	}
	if rep.RefreshReduction() > 1e-9 {
		t.Errorf("reduction = %v, want 0 for an all-failing chip", rep.RefreshReduction())
	}
}

func TestMispredictionAccounting(t *testing.T) {
	// Page tested at 2q+64ms, then written 100 ms later: idle < MWI
	// (560 ms), so the test was mispredicted.
	rewriteAt := 2*q + 164*trace.Millisecond
	tr := &trace.Trace{
		Name:     "mispredict",
		Duration: 3 * q,
		Events: []trace.Event{
			{Page: 0, At: 0},
			{Page: 0, At: rewriteAt},
		},
	}
	rep, err := RunWith(tr, cfgForTest())
	if err != nil {
		t.Fatal(err)
	}
	if rep.MispredictedTests != 1 {
		t.Errorf("mispredicted = %d, want 1", rep.MispredictedTests)
	}
	if rep.TestingTimeMispredNs <= 0 {
		t.Error("mispredicted test cost not accounted")
	}
}

func TestMinWriteIntervalFollowsMode(t *testing.T) {
	c := cfgForTest()
	e, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if e.mwi != 560*dram.Millisecond {
		t.Errorf("ReadCompare MWI = %d, want 560 ms", e.mwi/dram.Millisecond)
	}
	c.Mode = costmodel.CopyCompare
	e2, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if e2.mwi != 864*dram.Millisecond {
		t.Errorf("CopyCompare MWI = %d, want 864 ms", e2.mwi/dram.Millisecond)
	}
}

func TestObserveErrors(t *testing.T) {
	e, err := New(cfgForTest())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Observe(trace.Event{Page: MaxPages, At: 0}); err == nil {
		t.Error("page at the page bound accepted")
	}
	if err := e.Observe(trace.Event{Page: 0, At: q}); err != nil {
		t.Fatal(err)
	}
	if err := e.Observe(trace.Event{Page: 0, At: 0}); err == nil {
		t.Error("time going backwards accepted")
	}
	if _, err := e.Finish(0); err == nil {
		t.Error("finish before engine time accepted")
	}
}

func TestBaselineOpsArithmetic(t *testing.T) {
	tr := &trace.Trace{Name: "empty-ish", Duration: 16 * trace.Millisecond * 100, Events: []trace.Event{{Page: 0, At: 0}}}
	cfg := cfgForTest()
	cfg.NumPages = 10
	rep, err := RunWith(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline: 10 pages x (1600 ms / 16 ms) = 1000 ops.
	if math.Abs(rep.BaselineOps-1000) > 1e-6 {
		t.Errorf("baseline ops = %v, want 1000", rep.BaselineOps)
	}
	if math.Abs(rep.UpperBoundOps-250) > 1e-6 {
		t.Errorf("upper bound ops = %v, want 250", rep.UpperBoundOps)
	}
}

func TestReportDerivedMetricsOnZeroes(t *testing.T) {
	var r Report
	if r.RefreshReduction() != 0 || r.UpperBoundReduction() != 0 || r.LoRefCoverage() != 0 {
		t.Error("zero report should yield zero metrics")
	}
	if r.TestingTimeNs() != 0 || r.BaselineRefreshTimeNs() != 0 {
		t.Error("zero report time metrics should be zero")
	}
}

// The refresh-op identity: MEMCON ops always lie between the upper-bound
// (all-LO) and baseline (all-HI) op counts.
func TestRefreshOpsBounded(t *testing.T) {
	tr := &trace.Trace{Name: "mixed", Duration: 30 * q}
	for p := uint32(0); p < 20; p++ {
		tr.Events = append(tr.Events, trace.Event{Page: p, At: trace.Microseconds(p) * 1000})
		if p%3 == 0 { // some pages are rewritten often
			for k := trace.Microseconds(1); k < 30; k++ {
				tr.Events = append(tr.Events, trace.Event{Page: p, At: k * q})
			}
		}
	}
	tr.Sort()
	rep, err := RunWith(tr, cfgForTest())
	if err != nil {
		t.Fatal(err)
	}
	if rep.RefreshOps < rep.UpperBoundOps-1e-6 {
		t.Errorf("ops %v below the all-LO bound %v", rep.RefreshOps, rep.UpperBoundOps)
	}
	if rep.RefreshOps > rep.BaselineOps+1e-6 {
		t.Errorf("ops %v above the all-HI baseline %v", rep.RefreshOps, rep.BaselineOps)
	}
	if cov := rep.LoRefCoverage(); cov <= 0 || cov >= 1 {
		t.Errorf("coverage = %v, want in (0,1) for this mixed trace", cov)
	}
}
