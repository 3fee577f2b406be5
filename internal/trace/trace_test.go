package trace

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func sampleTrace() *Trace {
	t := &Trace{
		Name:     "sample",
		Duration: 10 * Second,
		Events: []Event{
			{Page: 1, At: 0},
			{Page: 2, At: 100},
			{Page: 1, At: 2 * Second},
			{Page: 3, At: 3 * Second},
			{Page: 1, At: 3 * Second},
		},
	}
	return t
}

func TestValidate(t *testing.T) {
	tr := sampleTrace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := &Trace{Events: []Event{{Page: 1, At: 5}, {Page: 1, At: 3}}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-order trace accepted")
	}
	neg := &Trace{Events: []Event{{Page: 1, At: -1}}}
	if err := neg.Validate(); err == nil {
		t.Error("negative timestamp accepted")
	}
	shortDur := &Trace{Duration: 1, Events: []Event{{Page: 1, At: 5}}}
	if err := shortDur.Validate(); err == nil {
		t.Error("duration shorter than events accepted")
	}
}

func TestSortStable(t *testing.T) {
	tr := &Trace{
		Duration: 100,
		Events: []Event{
			{Page: 9, At: 50},
			{Page: 1, At: 10},
			{Page: 2, At: 50},
		},
	}
	tr.Sort()
	if tr.Events[0].Page != 1 {
		t.Errorf("first event page = %d, want 1", tr.Events[0].Page)
	}
	// Stable: page 9 written before page 2 at the same timestamp.
	if tr.Events[1].Page != 9 || tr.Events[2].Page != 2 {
		t.Errorf("tie order not preserved: %+v", tr.Events)
	}
}

func TestPagesAndMaxPage(t *testing.T) {
	tr := sampleTrace()
	if got := tr.Pages(); got != 3 {
		t.Errorf("Pages = %d, want 3", got)
	}
	if got := tr.MaxPage(); got != 3 {
		t.Errorf("MaxPage = %d, want 3", got)
	}
	empty := &Trace{}
	if got := empty.MaxPage(); got != -1 {
		t.Errorf("empty MaxPage = %d, want -1", got)
	}
}

func TestIntervals(t *testing.T) {
	tr := sampleTrace()
	// Page 1: writes at 0, 2s, 3s -> intervals 2000ms, 1000ms, trailing 7000ms.
	// Page 2: write at 100us -> trailing only.
	// Page 3: write at 3s -> trailing only.
	noTrail := tr.Intervals(false)
	if len(noTrail) != 2 {
		t.Fatalf("closed intervals = %v, want 2 entries", noTrail)
	}
	withTrail := tr.Intervals(true)
	if len(withTrail) != 5 {
		t.Fatalf("with trailing = %v, want 5 entries", withTrail)
	}
	var sum float64
	for _, iv := range withTrail {
		sum += iv
		if iv <= 0 {
			t.Errorf("non-positive interval %v", iv)
		}
	}
}

func TestWritesPerPage(t *testing.T) {
	tr := sampleTrace()
	m := tr.PageWrites()
	if len(m[1]) != 3 || len(m[2]) != 1 || len(m[3]) != 1 {
		t.Errorf("PageWrites = %v", m)
	}
	if m[1][0] != 0 || m[1][1] != 2*Second || m[1][2] != 3*Second {
		t.Errorf("page 1 times = %v", m[1])
	}
}

func TestHalveIntervals(t *testing.T) {
	tr := sampleTrace()
	h := tr.HalveIntervals()
	if err := h.Validate(); err != nil {
		t.Fatalf("halved trace invalid: %v", err)
	}
	if h.Duration != tr.Duration/2 {
		t.Errorf("halved duration = %d, want %d", h.Duration, tr.Duration/2)
	}
	m := h.PageWrites()
	// Page 1 gaps were 2s and 1s; halved to 1s and 0.5s.
	if got := m[1][1] - m[1][0]; got != Second {
		t.Errorf("halved first gap = %d, want 1s", got)
	}
	if got := m[1][2] - m[1][1]; got != Second/2 {
		t.Errorf("halved second gap = %d, want 0.5s", got)
	}
	if len(h.Events) != len(tr.Events) {
		t.Errorf("event count changed: %d -> %d", len(tr.Events), len(h.Events))
	}
}

// Property: halving preserves per-page write counts and never produces
// an invalid trace.
func TestHalveIntervalsProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := &Trace{Name: "prop"}
		var at Microseconds
		for i := 0; i < int(n)+1; i++ {
			at += Microseconds(rng.Intn(100000))
			tr.Events = append(tr.Events, Event{Page: uint32(rng.Intn(8)), At: at})
		}
		tr.Duration = at + Microseconds(rng.Intn(100000))
		h := tr.HalveIntervals()
		if h.Validate() != nil {
			return false
		}
		orig := tr.PageWrites()
		halved := h.PageWrites()
		if len(orig) != len(halved) {
			return false
		}
		for p, times := range orig {
			if len(halved[p]) != len(times) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
