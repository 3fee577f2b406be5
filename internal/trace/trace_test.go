package trace

import (
	"testing"
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

// TestAccessorsAfterSort checks that MaxPage and Pages see events added
// by hand and sorted.
func TestAccessorsAfterSort(t *testing.T) {
	tr := &Trace{Name: "accessors", Duration: 10 * Second}
	for i := 0; i < 500; i++ {
		tr.Events = append(tr.Events, Event{Page: uint32(i % 37), At: Microseconds(i) * 1000})
	}
	if got := tr.MaxPage(); got != 36 {
		t.Fatalf("MaxPage = %d, want 36", got)
	}
	tr.Events = append(tr.Events, Event{Page: 100, At: 5 * Second})
	tr.Sort()
	if got := tr.MaxPage(); got != 100 {
		t.Errorf("MaxPage after Sort = %d, want 100", got)
	}
	if got := tr.Pages(); got != 38 {
		t.Errorf("Pages after Sort = %d, want 38", got)
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
