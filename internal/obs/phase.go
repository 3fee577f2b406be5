package obs

import (
	"sync"
	"time"
)

// PhaseTimer records named wall-clock phases of a run (per-experiment
// sweep time, trace generation, rendering). Phase durations are
// inherently schedule-dependent, so ExportTo registers them as
// volatile gauges: visible in the human table, excluded from the
// byte-stable JSON/Prometheus sinks.
type PhaseTimer struct {
	mu    sync.Mutex
	names []string
	byID  map[string]int
	nanos []int64
}

// NewPhaseTimer builds an empty timer.
func NewPhaseTimer() *PhaseTimer {
	return &PhaseTimer{byID: make(map[string]int)}
}

// Start begins timing the named phase and returns the stop function.
// Re-entering a phase name accumulates into the same bucket.
func (t *PhaseTimer) Start(name string) func() {
	begin := time.Now()
	return func() { t.Record(name, time.Since(begin)) }
}

// Record adds d to the named phase.
func (t *PhaseTimer) Record(name string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx, ok := t.byID[name]
	if !ok {
		idx = len(t.names)
		t.byID[name] = idx
		t.names = append(t.names, name)
		t.nanos = append(t.nanos, 0)
	}
	t.nanos[idx] += d.Nanoseconds()
}

// Phase is one recorded phase.
type Phase struct {
	Name   string
	WallNs int64
}

// Phases returns the recorded phases in first-recorded order.
func (t *PhaseTimer) Phases() []Phase {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Phase, len(t.names))
	for i, n := range t.names {
		out[i] = Phase{Name: n, WallNs: t.nanos[i]}
	}
	return out
}

// ExportTo registers every phase as a volatile gauge named
// phase_<name>_wall_ns.
func (t *PhaseTimer) ExportTo(reg *Registry) {
	for _, p := range t.Phases() {
		reg.Gauge("phase_"+sanitizeMetricName(p.Name)+"_wall_ns",
			"wall-clock time of phase "+p.Name+" (schedule-dependent)", true).Set(float64(p.WallNs))
	}
}

// sanitizeMetricName maps an arbitrary phase name onto the Prometheus
// metric-name alphabet.
func sanitizeMetricName(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_',
			c >= '0' && c <= '9' && len(out) > 0:
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "_"
	}
	return string(out)
}
