package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestKindNamesComplete(t *testing.T) {
	for _, k := range Kinds() {
		if name := k.String(); name == "" || strings.HasPrefix(name, "kind(") {
			t.Errorf("kind %d has no wire name", k)
		}
	}
	if Kind(200).String() != "kind(200)" {
		t.Errorf("out-of-range kind not rendered numerically")
	}
}

func TestCounterAndGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := reg.Counter("c_total", "other"); again != c {
		t.Errorf("re-registering a counter returned a different instance")
	}

	g := reg.Gauge("g", "help", false)
	g.Set(2.5)
	g.Add(1.5)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %v, want 4", got)
	}
	g.Max(3)
	if got := g.Value(); got != 4 {
		t.Errorf("Max lowered the gauge to %v", got)
	}
	g.Max(10)
	if got := g.Value(); got != 10 {
		t.Errorf("Max did not raise the gauge: %v", got)
	}
}

func TestHistogramBucketing(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h_us", "help", 1000, 4) // buckets: [1000,2000) ... [8000,16000)
	h.Observe(-5)                               // underflow, weight 0
	h.Observe(500)                              // underflow
	h.Observe(1000)                             // bucket 0
	h.Observe(1999)                             // bucket 0
	h.Observe(4000)                             // bucket 2
	h.Observe(16000)                            // overflow

	if got := h.Count(); got != 6 {
		t.Errorf("Count = %d, want 6", got)
	}
	wantSum := int64(500 + 1000 + 1999 + 4000 + 16000)
	if got := h.Sum(); got != wantSum {
		t.Errorf("Sum = %d, want %d", got, wantSum)
	}

	snap := h.Snapshot()
	if snap.Total() != 6 {
		t.Errorf("snapshot total = %d, want 6", snap.Total())
	}
	if snap.Underflow() != 2 || snap.Overflow() != 1 {
		t.Errorf("snapshot under/over = %d/%d, want 2/1", snap.Underflow(), snap.Overflow())
	}
	if snap.Count(0) != 2 || snap.Count(1) != 0 || snap.Count(2) != 1 {
		t.Errorf("snapshot buckets = %d,%d,%d, want 2,0,1", snap.Count(0), snap.Count(1), snap.Count(2))
	}
}

// TestHistogramConcurrentDeterminism verifies the aggregation property
// the -metrics goldens rely on: the same multiset of observations
// yields identical totals regardless of how threads interleave.
func TestHistogramConcurrentDeterminism(t *testing.T) {
	serial := NewRegistry().Histogram("h", "", 1000, 16)
	concurrent := NewRegistry().Histogram("h", "", 1000, 16)
	values := make([]int64, 0, 4096)
	for i := 0; i < 4096; i++ {
		values = append(values, int64(i*131)%100000)
	}
	for _, v := range values {
		serial.Observe(v)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(values); i += 8 {
				concurrent.Observe(values[i])
			}
		}()
	}
	wg.Wait()
	if serial.Count() != concurrent.Count() || serial.Sum() != concurrent.Sum() {
		t.Errorf("concurrent totals differ: count %d vs %d, sum %d vs %d",
			serial.Count(), concurrent.Count(), serial.Sum(), concurrent.Sum())
	}
	for i := 0; i < 16; i++ {
		if serial.Snapshot().Count(i) != concurrent.Snapshot().Count(i) {
			t.Errorf("bucket %d differs", i)
		}
	}
}

func TestMetricsObserverMapping(t *testing.T) {
	reg := NewRegistry()
	m := NewMetrics(reg)
	events := []Event{
		{Kind: KindWrite, Page: 1, At: 0, Aux: -1},
		{Kind: KindWrite, Page: 1, At: 5000, Aux: 5000},
		{Kind: KindPredict, Page: 1, At: 1024},
		{Kind: KindTestQueued, Page: 1, At: 1024, Aux: 65536},
		{Kind: KindTestDrained, Page: 1, At: 65536, Aux: 1},
		{Kind: KindTestDrained, Page: 2, At: 65536, Aux: 0},
		{Kind: KindTestAborted, Page: 1, At: 70000, Aux: 0},
		{Kind: KindTestAborted, Page: 1, At: 70001, Aux: 1},
		{Kind: KindRefreshToLo, Page: 1, At: 65536},
		{Kind: KindRefreshToHi, Page: 1, At: 90000, Aux: 24464},
		{Kind: KindPrilInsert, Page: 1, At: 0, Aux: 7},
		{Kind: KindPrilEvict, Page: 1, At: 0, Aux: 0},
		{Kind: KindPrilDiscard, Page: 3, At: 0, Aux: 4000},
		{Kind: KindRemapHit, Page: 4, At: 0, Aux: 0},
		{Kind: KindRemapHit, Page: 4, At: 0, Aux: 1},
		{Kind: KindNeighborRetest, Page: 6, At: 0, Aux: 7},
		{Kind: KindRowFailure, Page: 7, At: 0, Aux: 3},
		{Kind: KindRowWeak, Page: 8, At: 0},
		{Kind: KindRunDone, At: 100000, Aux: 12345},
	}
	for _, e := range events {
		m.OnEvent(e)
	}
	checks := map[string]int64{
		"memcon_writes_total":           2,
		"memcon_predictions_total":      1,
		"memcon_tests_queued_total":     1,
		"memcon_tests_passed_total":     1,
		"memcon_tests_failed_total":     1,
		"memcon_tests_aborted_total":    1,
		"memcon_tests_voided_total":     1,
		"memcon_refresh_to_lo_total":    1,
		"memcon_refresh_to_hi_total":    1,
		"memcon_pril_inserts_total":     1,
		"memcon_pril_evictions_total":   1,
		"memcon_pril_discards_total":    1,
		"memcon_remap_hits_total":       1,
		"memcon_remap_installs_total":   1,
		"memcon_neighbor_retests_total": 1,
		"memcon_row_failures_total":     1,
		"memcon_failing_cells_total":    3,
		"memcon_weak_rows_total":        1,
		"memcon_engine_runs_total":      1,
	}
	for name, want := range checks {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Gauge("memcon_pril_peak_buffer", "", false).Value(); got != 7 {
		t.Errorf("peak buffer = %v, want 7", got)
	}
	if got := m.writeIntervalUs.Count(); got != 1 {
		t.Errorf("write-interval observations = %d, want 1 (first write must not count)", got)
	}
	if got := m.loDwellUs.Sum(); got != 24464 {
		t.Errorf("dwell sum = %d, want 24464", got)
	}
}

func TestTeeAndRecorder(t *testing.T) {
	if Tee(nil, nil) != nil {
		t.Errorf("Tee of nils must be nil")
	}
	var a, b Recorder
	tee := Tee(&a, nil, &b)
	tee.OnEvent(Event{Kind: KindWrite, Page: 1})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Errorf("tee did not fan out: %d/%d", len(a.Events()), len(b.Events()))
	}
	single := Tee(nil, &a)
	if single != Observer(&a) {
		t.Errorf("Tee of one observer must return it unchanged")
	}
	a.Reset()
	if len(a.Events()) != 0 {
		t.Errorf("Reset left %d events", len(a.Events()))
	}
}

func TestPhaseTimer(t *testing.T) {
	pt := NewPhaseTimer()
	pt.Record("sweep", 250*time.Millisecond)
	pt.Record("sweep", 50*time.Millisecond)
	pt.Record("render", time.Second)
	stop := pt.Start("replay")
	stop()

	phases := pt.Phases()
	if len(phases) != 3 || phases[0].Name != "sweep" || phases[1].Name != "render" || phases[2].Name != "replay" {
		t.Fatalf("phases = %+v", phases)
	}
	if phases[0].WallNs != (300 * time.Millisecond).Nanoseconds() {
		t.Errorf("sweep wall = %d", phases[0].WallNs)
	}
	if phases[2].WallNs < 0 {
		t.Errorf("replay wall = %d, want a non-negative duration", phases[2].WallNs)
	}
	reg := NewRegistry()
	pt.ExportTo(reg)
	g := reg.Gauge("phase_sweep_wall_ns", "", true)
	if g.Value() != 3e8 {
		t.Errorf("exported phase gauge = %v", g.Value())
	}
	var sb strings.Builder
	if err := reg.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "phase_sweep_wall_ns") {
		t.Errorf("volatile phase gauge leaked into JSON output:\n%s", sb.String())
	}
	var table strings.Builder
	if err := reg.WriteTable(&table); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "phase_render_wall_ns") {
		t.Errorf("phase table missing phase:\n%s", table.String())
	}
}

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"fig14":     "fig14",
		"exp fig-3": "exp_fig_3",
		"":          "_",
		"9lives":    "_lives",
	}
	for in, want := range cases {
		if got := sanitizeMetricName(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}
