package core

import (
	"math/rand"
	"testing"

	"memcon/internal/trace"
)

// randomTrace builds a random but valid write trace.
func randomTrace(seed int64, events, pages int, horizon trace.Microseconds) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &trace.Trace{Duration: horizon}
	for i := 0; i < events; i++ {
		tr.Events = append(tr.Events, trace.Event{
			Page: uint32(rng.Intn(pages)),
			At:   trace.Microseconds(rng.Int63n(int64(horizon))),
		})
	}
	tr.Sort()
	return tr
}

// Engine invariants that must hold on ANY trace:
//
//  1. RefreshOps within [UpperBoundOps, BaselineOps].
//  2. LoRefTime within [0, pages*duration].
//  3. TestsCompleted + TestsAborted <= TestsStarted.
//  4. CorrectTests + MispredictedTests == TestsCompleted (every completed
//     test eventually gets a verdict).
//  5. Coverage within [0, 1].
func TestEngineInvariantsOnRandomTraces(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		tr := randomTrace(seed, 400, 24, 30*q)
		rep, err := RunWith(tr, cfgForTest())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.RefreshOps < rep.UpperBoundOps-1e-6 || rep.RefreshOps > rep.BaselineOps+1e-6 {
			t.Errorf("seed %d: ops %v outside [%v, %v]", seed, rep.RefreshOps, rep.UpperBoundOps, rep.BaselineOps)
		}
		maxLo := float64(rep.Duration) * float64(rep.Pages)
		if rep.LoRefTime < 0 || rep.LoRefTime > maxLo {
			t.Errorf("seed %d: LoRefTime %v outside [0, %v]", seed, rep.LoRefTime, maxLo)
		}
		if rep.TestsCompleted+rep.TestsAborted > rep.TestsStarted {
			t.Errorf("seed %d: completed %d + aborted %d > started %d",
				seed, rep.TestsCompleted, rep.TestsAborted, rep.TestsStarted)
		}
		if rep.CorrectTests+rep.MispredictedTests != rep.TestsCompleted {
			t.Errorf("seed %d: verdicts %d+%d != completed %d",
				seed, rep.CorrectTests, rep.MispredictedTests, rep.TestsCompleted)
		}
		if cov := rep.LoRefCoverage(); cov < 0 || cov > 1 {
			t.Errorf("seed %d: coverage %v outside [0,1]", seed, cov)
		}
	}
}

// The same invariants with a failing tester and a bounded buffer — the
// paths that diverge from the happy path.
func TestEngineInvariantsUnderFailuresAndOverflow(t *testing.T) {
	flaky := TesterFunc(func(page uint32, _ trace.Microseconds) bool { return page%3 != 0 })
	for seed := int64(0); seed < 8; seed++ {
		tr := randomTrace(1000+seed, 600, 48, 20*q)
		cfg := cfgForTest()
		cfg.BufferCap = 6
		rep, err := RunWith(tr, cfg, WithTester(flaky))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.TestsFailed > rep.TestsCompleted {
			t.Errorf("seed %d: failed %d > completed %d", seed, rep.TestsFailed, rep.TestsCompleted)
		}
		if rep.RefreshOps < rep.UpperBoundOps-1e-6 || rep.RefreshOps > rep.BaselineOps+1e-6 {
			t.Errorf("seed %d: ops %v out of bounds", seed, rep.RefreshOps)
		}
		if rep.CorrectTests+rep.MispredictedTests != rep.TestsCompleted {
			t.Errorf("seed %d: verdict accounting broken", seed)
		}
	}
}

// Determinism: identical traces and configs produce identical reports.
func TestEngineDeterministic(t *testing.T) {
	tr := randomTrace(77, 300, 16, 20*q)
	a, err := RunWith(tr, cfgForTest())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWith(tr, cfgForTest())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("engine not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}
