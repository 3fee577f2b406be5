package core

import (
	"fmt"
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
//  4. The accounting identities of checkAccounting, before and after
//     the read-only fold.
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
		checkAccounting(t, fmt.Sprintf("seed %d", seed), rep, cfgForTest())
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
		checkAccounting(t, fmt.Sprintf("seed %d", seed), rep, cfg)
	}
}

// checkAccounting holds a report to the engine's accounting identities,
// and then its fold with nine read-only rows per page: every completed
// test gets one verdict, and testing time is the per-test cost times
// the tests it was spent on, exactly (a sum of one integer-valued
// cost). An aborted test counts as mispredicted.
func checkAccounting(t testing.TB, name string, rep Report, cfg Config) {
	t.Helper()
	cost := float64(cfg.costConfig().TestCost())
	for _, r := range []Report{rep, rep.WithReadOnlyRows(9*rep.Pages, cfg)} {
		if r.CorrectTests+r.MispredictedTests != r.TestsCompleted {
			t.Fatalf("%s: %d correct + %d mispredicted tests, but %d completed",
				name, r.CorrectTests, r.MispredictedTests, r.TestsCompleted)
		}
		if want := cost * float64(r.CorrectTests+r.MispredictedTests+r.TestsAborted); r.TestingTimeNs() != want {
			t.Fatalf("%s: testing time %v ns, want %v (%d correct, %d mispredicted, %d aborted)",
				name, r.TestingTimeNs(), want, r.CorrectTests, r.MispredictedTests, r.TestsAborted)
		}
		if want := cost * float64(r.TestsAborted); r.TestingTimeAbortedNs != want {
			t.Fatalf("%s: aborted testing time %v ns, want %v (%d aborted)",
				name, r.TestingTimeAbortedNs, want, r.TestsAborted)
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
