package memcon_test

import (
	"context"
	"fmt"

	"memcon"
	"memcon/internal/trace"
)

// The minimal MEMCON flow: feed a write trace to the engine and read
// the refresh savings.
func ExampleRun() {
	tr := &memcon.Trace{
		Name:     "demo",
		Duration: 20 * 1024 * trace.Millisecond, // 20 quanta
		Events:   []memcon.Event{{Page: 0, At: 0}},
	}
	rep, err := memcon.Run(tr, memcon.DefaultConfig(), nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("tests: %d, reduction: %.0f%% of upper bound %.0f%%\n",
		rep.TestsCompleted,
		100*rep.RefreshReduction()/rep.UpperBoundReduction()*rep.UpperBoundReduction(),
		100*rep.UpperBoundReduction())
	// Output: tests: 1, reduction: 67% of upper bound 75%
}

// Observers receive the engine's structured lifecycle events: attach
// one with the option-based constructor and watch a page be written,
// tracked by PRIL, predicted idle, tested, and moved to LO-REF. The
// KindRunDone event is skipped here because its payload is wall-clock
// time.
func ExampleNew_observer() {
	eng, err := memcon.New(memcon.DefaultConfig(),
		memcon.WithObserver(memcon.ObserverFunc(func(e memcon.ObserverEvent) {
			if e.Kind != memcon.KindRunDone {
				fmt.Println(e)
			}
		})))
	if err != nil {
		panic(err)
	}
	tr := &memcon.Trace{
		Name:     "demo",
		Duration: 4 * 1024 * trace.Millisecond, // 4 quanta
		Events:   []memcon.Event{{Page: 0, At: 0}},
	}
	if _, err := eng.RunContext(context.Background(), tr); err != nil {
		panic(err)
	}
	// Output:
	// write page=0 at=0 aux=-1
	// pril_insert page=0 at=0 aux=1
	// predict page=0 at=2048000 aux=0
	// test_queued page=0 at=2048000 aux=2112000
	// test_drained page=0 at=2112000 aux=1
	// refresh_to_lo page=0 at=2112000 aux=0
}

// MinWriteInterval exposes the paper's central cost-model result.
func ExampleMinWriteInterval() {
	fmt.Printf("%d ms\n", memcon.MinWriteInterval()/1_000_000)
	// Output: 560 ms
}

// Experiments regenerate the paper's tables and figures by id.
func ExampleExperiment() {
	out, err := memcon.Experiment(context.Background(), memcon.DefaultExperimentRequest("minwi"))
	if err != nil {
		panic(err)
	}
	_ = out // a fmt.Stringer holding the appendix table
	fmt.Println("ok")
	// Output: ok
}
