package trace

import (
	"testing"
)

func memoTrace() *Trace {
	tr := &Trace{Name: "memo", Duration: 10 * Second}
	for i := 0; i < 500; i++ {
		tr.Events = append(tr.Events, Event{Page: uint32(i % 37), At: Microseconds(i) * 1000})
	}
	tr.Sort()
	return tr
}

// TestAnalysisAccessorsAllocationFree is the satellite regression test:
// Pages/MaxPage/PageWrites memoize on the sorted trace, so repeated
// calls must not allocate (they used to build a fresh seen-map or
// per-page index every call).
func TestAnalysisAccessorsAllocationFree(t *testing.T) {
	tr := memoTrace()
	// Warm the memos.
	tr.Pages()
	tr.PageWrites()
	if n := testing.AllocsPerRun(100, func() {
		if tr.Pages() != 37 || tr.MaxPage() != 36 {
			t.Fatal("memoized stats wrong")
		}
	}); n != 0 {
		t.Errorf("Pages/MaxPage allocate %.1f times per call after warm-up, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if len(tr.PageWrites()) != 37 {
			t.Fatal("memoized index wrong")
		}
	}); n != 0 {
		t.Errorf("PageWrites allocates %.1f times per call after warm-up, want 0", n)
	}
}

// TestSortInvalidatesMemos pins the invalidation contract: mutate
// Events, Sort, and every accessor must see the new shape.
func TestSortInvalidatesMemos(t *testing.T) {
	tr := memoTrace()
	if got := tr.MaxPage(); got != 36 {
		t.Fatalf("MaxPage = %d, want 36", got)
	}
	if got := len(tr.PageWrites()[100]); got != 0 {
		t.Fatalf("page 100 has %d writes before it exists", got)
	}
	tr.Events = append(tr.Events, Event{Page: 100, At: 5 * Second})
	tr.Sort()
	if got := tr.MaxPage(); got != 100 {
		t.Errorf("MaxPage after Sort = %d, want 100", got)
	}
	if got := tr.Pages(); got != 38 {
		t.Errorf("Pages after Sort = %d, want 38", got)
	}
	if got := len(tr.PageWrites()[100]); got != 1 {
		t.Errorf("page 100 writes after Sort = %d, want 1", got)
	}
}
