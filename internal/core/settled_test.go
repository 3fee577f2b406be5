package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"memcon/internal/dram"
	"memcon/internal/trace"
	"memcon/internal/workload"
)

// A repeat write to a settled page takes Observe's settled path. These
// tests hold the engine to the frozen engine (frozen_test.go), which
// runs the full path for every write, on bursty write sequences aimed
// at the edges of a settled page's horizon and on the twelve
// application traces, and they pin how many writes take the settled
// path.

// testRecord is one online test as the Tester saw it: the page, the
// completion instant it was asked about, and how many writes the
// engine had been handed by then. A test drained late leaves the
// report as it was but changes seen.
type testRecord struct {
	page uint32
	done trace.Microseconds
	seen int
}

// recordingTester logs every test it runs. Its verdict depends only on
// the page and the completion instant, so both engines of a pair get
// the same verdicts for the same tests.
type recordingTester struct {
	seen *int
	log  []testRecord
}

func (r *recordingTester) Test(page uint32, done trace.Microseconds) bool {
	r.log = append(r.log, testRecord{page: page, done: done, seen: *r.seen})
	return (uint64(page)*7+uint64(done))%5 != 0
}

// enginePair feeds one op sequence to the frozen and the live engine.
type enginePair struct {
	t         testing.TB
	frozen    *frozenEngine
	live      *Engine
	seen      int
	want, got recordingTester
}

func newEnginePair(t testing.TB, cfg Config) *enginePair {
	t.Helper()
	p := &enginePair{t: t}
	p.want.seen, p.got.seen = &p.seen, &p.seen
	var err error
	if p.frozen, err = newFrozenEngine(cfg, &p.want); err != nil {
		t.Fatal(err)
	}
	if p.live, err = New(cfg, WithTester(&p.got)); err != nil {
		t.Fatal(err)
	}
	return p
}

func (p *enginePair) write(ev trace.Event) {
	p.t.Helper()
	p.seen++
	if err := p.frozen.observe(ev); err != nil {
		p.t.Fatal(err)
	}
	if err := p.live.Observe(ev); err != nil {
		p.t.Fatal(err)
	}
}

// retestNeighbours is System's neighbour loop: after a write to page
// at at, each adjacent page at LO-REF or under test is retested at the
// same instant. The engines must agree on every neighbour's status.
func (p *enginePair) retestNeighbours(page uint32, at trace.Microseconds) {
	p.t.Helper()
	for _, nb := range [2]uint32{page - 1, page + 1} {
		if int(nb) >= len(p.frozen.pages) {
			continue // page 0 has no lower neighbour
		}
		loRef, testing := p.live.pageStatus(nb)
		if fs := p.frozen.pages[nb]; loRef != fs.loRef || testing != fs.testing {
			p.t.Fatalf("page %d at %d: live loRef=%v testing=%v, frozen loRef=%v testing=%v",
				nb, at, loRef, testing, fs.loRef, fs.testing)
		}
		if loRef || testing {
			if err := p.frozen.retest(nb, at); err != nil {
				p.t.Fatal(err)
			}
			if err := p.live.Retest(nb, at); err != nil {
				p.t.Fatal(err)
			}
		}
	}
}

// finish ends both runs at end. The reports must match, and so must
// the testers' logs.
func (p *enginePair) finish(name string, end trace.Microseconds) {
	p.t.Helper()
	want, err := p.frozen.finish(end)
	if err != nil {
		p.t.Fatal(err)
	}
	got, err := p.live.Finish(end)
	if err != nil {
		p.t.Fatal(err)
	}
	if got != want {
		p.t.Fatalf("%s: report diverges:\n got %+v\nwant %+v", name, got, want)
	}
	for i := range min(len(p.got.log), len(p.want.log)) {
		if p.got.log[i] != p.want.log[i] {
			p.t.Fatalf("%s: test %d diverges: live %+v, frozen %+v", name, i, p.got.log[i], p.want.log[i])
		}
	}
	if len(p.got.log) != len(p.want.log) {
		p.t.Fatalf("%s: live ran %d tests, frozen %d", name, len(p.got.log), len(p.want.log))
	}
}

// choices hands out the generator's decisions one byte at a time.
type choices []byte

func (c *choices) next(n int) int {
	if len(*c) == 0 {
		return 0
	}
	v := int((*c)[0]) % n
	*c = (*c)[1:]
	return v
}

// settledPages is the page space of a generated sequence: few pages, so
// runs interleave, buffers of capacity 1 and 3 fill up, and neighbours
// are often at LO-REF or under test.
const settledPages = 6

// replaySettledOps turns data into a bursty write sequence and replays
// it through both engines of a fresh pair, retesting neighbours as
// System does after some writes. The sequence holds runs of repeat
// writes, writes on a quantum boundary and on a queued test's
// completion (each also 1 µs either side), and gaps of one LO-REF
// window. It ends with data and reports the number of writes and how
// many of them took the settled path.
func replaySettledOps(t testing.TB, data []byte) (writes int, settled int64) {
	t.Helper()
	c := choices(data)
	cfg := DefaultConfig()
	cfg.NumPages = settledPages
	cfg.Quantum = [...]trace.Microseconds{48 * trace.Millisecond, 128 * trace.Millisecond, 1024 * trace.Millisecond}[c.next(3)]
	cfg.BufferCap = [...]int{0, 1, 3}[c.next(3)] // a full buffer settles a page on its first write
	p := newEnginePair(t, cfg)
	loRefWindow := trace.Microseconds(cfg.LoRef / dram.Microsecond)
	var page uint32
	var at trace.Microseconds
	for len(c) > 0 {
		if c.next(4) == 0 {
			page = uint32(c.next(settledPages))
		}
		switch c.next(8) {
		case 0, 1, 2: // a run: the same instant or the next few µs
			at += trace.Microseconds(c.next(3))
		case 3: // a short gap
			at += 16 * trace.Microseconds(1+c.next(256))
		case 4: // on the next quantum boundary, or 1 µs either side
			at = max(at, (at/cfg.Quantum+1)*cfg.Quantum-1+trace.Microseconds(c.next(3)))
		case 5: // on a queued test's completion, or 1 µs either side
			if items := p.frozen.tests.items; len(items) > 0 {
				at = max(at, items[c.next(len(items))].done-1+trace.Microseconds(c.next(3)))
			}
		case 6: // one LO-REF window
			at += loRefWindow
		case 7: // a long gap, up to two quanta
			at += cfg.Quantum * trace.Microseconds(c.next(256)) / 128
		}
		p.write(trace.Event{Page: page, At: at})
		if c.next(3) == 0 {
			p.retestNeighbours(page, at)
		}
	}
	p.finish(fmt.Sprintf("quantum=%dms cap=%d", cfg.Quantum/trace.Millisecond, cfg.BufferCap), at+cfg.Quantum)
	return p.seen, p.live.settledWrites
}

// settledSeedBytes draws n generator bytes from seed.
func settledSeedBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestSettledWritesMatchFrozen replays 300 generated sequences of about
// 500 writes each through the frozen and the live engine.
func TestSettledWritesMatchFrozen(t *testing.T) {
	var writes int
	var settled int64
	for seed := int64(1); seed <= 300; seed++ {
		w, s := replaySettledOps(t, settledSeedBytes(seed, 2048))
		writes, settled = writes+w, settled+s
	}
	// 151,085 writes, 47,517 of them on the settled path: both paths
	// must stay well exercised.
	if writes < 100000 || settled < 20000 {
		t.Fatalf("the sequences hold %d writes, %d on the settled path", writes, settled)
	}
}

// FuzzEngineSettledWrites runs the generator of
// TestSettledWritesMatchFrozen over arbitrary bytes.
func FuzzEngineSettledWrites(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(settledSeedBytes(seed, 512))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		replaySettledOps(t, data)
	})
}

// appQuanta are the quanta Figs. 14 and 17 replay the traces at.
var appQuanta = []trace.Microseconds{512 * trace.Millisecond, 1024 * trace.Millisecond, 2048 * trace.Millisecond}

// TestSettledWritesMatchFrozenOnAppTraces replays the twelve
// application traces (seed 42, scale 0.05) at the three quanta through
// the frozen and the live engine.
func TestSettledWritesMatchFrozenOnAppTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("12 traces × 3 quanta through two engines in -short mode")
	}
	for _, app := range workload.Apps() {
		tr := app.Generate(42, 0.05)
		for _, quantum := range appQuanta {
			cfg := DefaultConfig()
			cfg.Quantum = quantum
			cfg.NumPages = tr.MaxPage() + 1
			p := newEnginePair(t, cfg)
			for _, ev := range tr.Events {
				p.write(ev)
			}
			p.finish(fmt.Sprintf("%s quantum=%dms", app.Name, quantum/trace.Millisecond), tr.Duration)
		}
	}
}

// TestSettledWriteCount pins how many writes of the twelve application
// traces (seed 42, scale 0.05) take the settled path at each quantum.
// It counts work, not time: an engine that stops taking the path, or
// takes it less often, fails here on any host.
//
// A write takes the path when it repeats the page the last settling
// write recorded, before that record's horizon. A full-path write
// that leaves its own page unsettled keeps the record: it cannot end a
// quantum, complete a test or touch the recorded page's PRIL state. A
// rule that drops the record there counts 2,042,211, 2,046,470 and
// 2,048,794 writes. PRIL itself passes 2,073,174, 2,078,877 and
// 2,082,053 writes by, counting writes to settled pages that are not
// the recorded one.
func TestSettledWriteCount(t *testing.T) {
	want := []int64{2046322, 2051758, 2054553}
	got := make([]int64, len(appQuanta))
	events := 0
	for _, app := range workload.Apps() {
		tr := app.Generate(42, 0.05)
		events += len(tr.Events)
		for i, quantum := range appQuanta {
			cfg := DefaultConfig()
			cfg.Quantum = quantum
			cfg.NumPages = tr.MaxPage() + 1
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.RunContext(context.Background(), tr); err != nil {
				t.Fatal(err)
			}
			got[i] += e.settledWrites
		}
	}
	if events != 2102487 {
		t.Fatalf("the traces hold %d events, want 2102487", events)
	}
	for i, quantum := range appQuanta {
		if got[i] != want[i] {
			t.Errorf("quantum %d ms: %d of %d writes took the settled path, want %d",
				quantum/trace.Millisecond, got[i], events, want[i])
		}
	}
}
