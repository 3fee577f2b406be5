package parallel

import (
	"context"
	"fmt"
	"sync"

	"memcon/internal/obs"
)

// WorkerStats is the utilization of one pool worker: how many work
// units it executed and how long it spent inside unit functions.
type WorkerStats struct {
	Units  int64
	BusyNs int64
}

// PoolStats accumulates per-worker utilization across every sweep run
// under a context carrying it (see ContextWithStats). The numbers are
// wall-clock derived and schedule-dependent — two identical runs report
// different splits — so PoolStats exports only as VOLATILE gauges,
// which the deterministic JSON/Prometheus sinks exclude; it surfaces in
// the human table.
//
// PoolStats is safe for concurrent use.
type PoolStats struct {
	mu      sync.Mutex
	workers map[int]*WorkerStats
}

// NewPoolStats creates an empty collector.
func NewPoolStats() *PoolStats {
	return &PoolStats{workers: make(map[int]*WorkerStats)}
}

// Add merges one worker's contribution from a finished sweep.
func (p *PoolStats) Add(worker int, units, busyNs int64) {
	if p == nil || units == 0 && busyNs == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	ws := p.workers[worker]
	if ws == nil {
		ws = &WorkerStats{}
		p.workers[worker] = ws
	}
	ws.Units += units
	ws.BusyNs += busyNs
}

// Workers returns a copy of the per-worker stats keyed by worker index.
func (p *PoolStats) Workers() map[int]WorkerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[int]WorkerStats, len(p.workers))
	for id, ws := range p.workers {
		out[id] = *ws
	}
	return out
}

// ExportTo publishes the utilization into reg as volatile gauges
// (pool_worker_<id>_units, pool_worker_<id>_busy_ns) so it shows up in
// the human metrics table without perturbing the deterministic sinks.
func (p *PoolStats) ExportTo(reg *obs.Registry) {
	for id, ws := range p.Workers() {
		reg.Gauge(fmt.Sprintf("pool_worker_%d_units", id),
			"work units executed by this pool worker", true).Add(float64(ws.Units))
		reg.Gauge(fmt.Sprintf("pool_worker_%d_busy_ns", id),
			"wall time this pool worker spent inside unit functions", true).Add(float64(ws.BusyNs))
	}
}

// statsKey carries a *PoolStats through a context.
type statsKey struct{}

// ContextWithStats returns a context that makes every ForEach/Map sweep
// under it record per-worker utilization into ps.
func ContextWithStats(ctx context.Context, ps *PoolStats) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, statsKey{}, ps)
}

// StatsFrom extracts the collector installed by ContextWithStats, or
// nil when the context carries none.
func StatsFrom(ctx context.Context) *PoolStats {
	if ctx == nil {
		return nil
	}
	ps, _ := ctx.Value(statsKey{}).(*PoolStats)
	return ps
}
