package obs

// Metrics is the standard event-to-metric aggregation: an Observer
// that folds the structured event stream into a Registry. Every update
// it performs is commutative, so the stable (non-volatile) metrics it
// produces are identical for any worker count — the property the
// -metrics golden tests pin.
type Metrics struct {
	reg *Registry

	writes          *Counter
	predictions     *Counter
	testsQueued     *Counter
	testsPassed     *Counter
	testsFailed     *Counter
	testsAborted    *Counter
	testsRetested   *Counter
	toLo            *Counter
	toHi            *Counter
	prilInserts     *Counter
	prilEvicts      *Counter
	prilDiscards    *Counter
	remapHits       *Counter
	remapInstalls   *Counter
	neighborRetests *Counter
	rowFailures     *Counter
	failingCells    *Counter
	weakRows        *Counter
	runs            *Counter
	rowActivations  *Counter
	testActivations *Counter
	mitigationOps   *Counter
	disturbRows     *Counter
	disturbCells    *Counter

	peakBuffer *Gauge
	runWallNs  *Gauge

	writeIntervalUs *Histogram
	loDwellUs       *Histogram
}

// NewMetrics builds the aggregation over reg, eagerly registering the
// full metric set so sink output lists every metric even when zero.
func NewMetrics(reg *Registry) *Metrics {
	return &Metrics{
		reg: reg,

		writes:          reg.Counter("memcon_writes_total", "program writes observed by the engine"),
		predictions:     reg.Counter("memcon_predictions_total", "pages PRIL predicted idle long enough to test"),
		testsQueued:     reg.Counter("memcon_tests_queued_total", "online tests started"),
		testsPassed:     reg.Counter("memcon_tests_passed_total", "online tests completed clean (row moved to LO-REF)"),
		testsFailed:     reg.Counter("memcon_tests_failed_total", "online tests that found a data-dependent failure"),
		testsAborted:    reg.Counter("memcon_tests_aborted_total", "online tests aborted by an intervening write"),
		testsRetested:   reg.Counter("memcon_tests_voided_total", "online tests voided by a neighbour re-test"),
		toLo:            reg.Counter("memcon_refresh_to_lo_total", "row transitions HI-REF to LO-REF"),
		toHi:            reg.Counter("memcon_refresh_to_hi_total", "row transitions LO-REF to HI-REF"),
		prilInserts:     reg.Counter("memcon_pril_inserts_total", "pages admitted into a PRIL write buffer"),
		prilEvicts:      reg.Counter("memcon_pril_evictions_total", "pages evicted from a PRIL write buffer"),
		prilDiscards:    reg.Counter("memcon_pril_discards_total", "pages dropped because the PRIL write buffer was full"),
		remapHits:       reg.Counter("memcon_remap_hits_total", "tests short-circuited by an already-remapped row"),
		remapInstalls:   reg.Counter("memcon_remap_installs_total", "failing rows newly remapped to screened spares"),
		neighborRetests: reg.Counter("memcon_neighbor_retests_total", "neighbour re-tests initiated"),
		rowFailures:     reg.Counter("memcon_row_failures_total", "failing rows found by characterization read-backs"),
		failingCells:    reg.Counter("memcon_failing_cells_total", "failing cells found by characterization read-backs"),
		weakRows:        reg.Counter("memcon_weak_rows_total", "rows the all-pattern scan classified as weak"),
		runs:            reg.Counter("memcon_engine_runs_total", "engine runs completed"),
		rowActivations:  reg.Counter("memcon_row_activations_total", "tracked ACT commands (row misses plus test row cycles)"),
		testActivations: reg.Counter("memcon_test_activations_total", "ACT commands attributable to injected test traffic"),
		mitigationOps:   reg.Counter("memcon_mitigation_ops_total", "extra neighbour refreshes issued by RowHammer mitigation"),
		disturbRows:     reg.Counter("memcon_disturb_rows_total", "victim rows with read-disturb flips found by a census"),
		disturbCells:    reg.Counter("memcon_disturb_cells_total", "cells flipped by read disturb found by a census"),

		peakBuffer: reg.Gauge("memcon_pril_peak_buffer", "largest PRIL write-buffer occupancy seen", false),
		runWallNs:  reg.Gauge("memcon_run_wall_ns", "accumulated wall-clock engine run time (schedule-dependent)", true),

		writeIntervalUs: reg.Histogram("memcon_write_interval_us",
			"interval between consecutive writes to the same page (µs)", 1000, 16),
		loDwellUs: reg.Histogram("memcon_loref_dwell_us",
			"time rows spent at LO-REF before being written back to HI-REF (µs)", 1000, 16),
	}
}

// OnEvent implements Observer.
func (m *Metrics) OnEvent(e Event) {
	switch e.Kind {
	case KindWrite:
		m.writes.Inc()
		if e.Aux >= 0 {
			m.writeIntervalUs.Observe(e.Aux)
		}
	case KindPredict:
		m.predictions.Inc()
	case KindTestQueued:
		m.testsQueued.Inc()
	case KindTestDrained:
		if e.Aux != 0 {
			m.testsPassed.Inc()
		} else {
			m.testsFailed.Inc()
		}
	case KindTestAborted:
		if e.Aux != 0 {
			m.testsRetested.Inc()
		} else {
			m.testsAborted.Inc()
		}
	case KindRefreshToLo:
		m.toLo.Inc()
	case KindRefreshToHi:
		m.toHi.Inc()
		if e.Aux >= 0 {
			m.loDwellUs.Observe(e.Aux)
		}
	case KindPrilInsert:
		m.prilInserts.Inc()
		m.peakBuffer.Max(float64(e.Aux))
	case KindPrilEvict:
		m.prilEvicts.Inc()
	case KindPrilDiscard:
		m.prilDiscards.Inc()
	case KindRemapHit:
		if e.Aux != 0 {
			m.remapInstalls.Inc()
		} else {
			m.remapHits.Inc()
		}
	case KindNeighborRetest:
		m.neighborRetests.Inc()
	case KindRowFailure:
		m.rowFailures.Inc()
		m.failingCells.Add(e.Aux)
	case KindRowWeak:
		m.weakRows.Inc()
	case KindRunDone:
		m.runs.Inc()
		m.runWallNs.Add(float64(e.Aux))
	case KindRowActivation:
		m.rowActivations.Add(e.Aux)
	case KindTestActivation:
		m.testActivations.Add(e.Aux)
	case KindMitigation:
		m.mitigationOps.Add(e.Aux)
	case KindDisturbFailure:
		m.disturbRows.Inc()
		m.disturbCells.Add(e.Aux)
	}
}
