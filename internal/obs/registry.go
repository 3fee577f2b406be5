package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"memcon/internal/stats"
)

// Registry holds named metrics. All update operations are commutative
// (atomic adds, monotonic maxima, integer-domain histogram counts), so
// aggregates collected from a parallel sweep are identical for any
// worker count. Metrics registered as volatile carry values that ARE
// schedule- or wall-clock-dependent (run and phase wall times); the
// machine-readable sinks skip them so their output stays byte-identical
// across worker counts.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on
// first use. Metric names should be Prometheus-compatible
// ([a-zA-Z_][a-zA-Z0-9_]*).
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{help: help}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. volatile marks the gauge as schedule-dependent: the JSON and
// Prometheus sinks skip it, only the human table shows it.
func (r *Registry) Gauge(name, help string, volatile bool) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{help: help, volatile: volatile}
	r.gauges[name] = g
	return g
}

// Histogram returns the log-scale histogram registered under name,
// creating it on first use with the given base (lower edge of the
// first power-of-two bucket) and bucket count. Observations are
// integers (microseconds, nanoseconds, counts), which keeps the
// per-bucket sums exact and therefore order-independent.
func (r *Registry) Histogram(name, help string, base int64, buckets int) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := newHistogram(help, base, buckets)
	r.hists[name] = h
	return h
}

// names returns the sorted metric names of one map.
func sortedNames[T any](m map[string]T) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	v    atomic.Int64
	help string
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for Prometheus semantics).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 metric supporting last-write, additive and
// maximum updates. Only Add and Max are order-independent; Set is for
// single-writer use (end-of-run exports).
type Gauge struct {
	bits     atomic.Uint64
	help     string
	volatile bool
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds v.
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Max atomically raises the gauge to v when v is larger.
func (g *Gauge) Max(v float64) {
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram buckets positive integer observations into power-of-two
// bins, mirroring stats.LogHistogram (which it delegates to for
// rendering and analysis via Snapshot). Counts and per-bucket sums are
// int64s updated atomically, so concurrent observation streams
// aggregate to the same totals in any order — the property that makes
// -metrics output worker-count-invariant.
type Histogram struct {
	base    int64
	buckets int
	help    string

	counts []int64 // atomic
	sums   []int64 // atomic; sum of observed values per bucket
	under  atomic.Int64
	underW atomic.Int64
	over   atomic.Int64
	overW  atomic.Int64
}

func newHistogram(help string, base int64, buckets int) *Histogram {
	if base <= 0 || buckets < 1 {
		panic("obs: invalid histogram parameters")
	}
	return &Histogram{
		base:    base,
		buckets: buckets,
		help:    help,
		counts:  make([]int64, buckets),
		sums:    make([]int64, buckets),
	}
}

// Observe records one value. Non-positive values count as underflow
// with zero weight, matching stats.LogHistogram.Add.
func (h *Histogram) Observe(v int64) {
	if v < h.base {
		h.under.Add(1)
		if v > 0 {
			h.underW.Add(v)
		}
		return
	}
	idx := int(math.Floor(math.Log2(float64(v) / float64(h.base))))
	if idx >= h.buckets {
		h.over.Add(1)
		h.overW.Add(v)
		return
	}
	atomic.AddInt64(&h.counts[idx], 1)
	atomic.AddInt64(&h.sums[idx], v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	n := h.under.Load() + h.over.Load()
	for i := range h.counts {
		n += atomic.LoadInt64(&h.counts[i])
	}
	return n
}

// Sum returns the exact integer sum of all positive observations.
func (h *Histogram) Sum() int64 {
	s := h.underW.Load() + h.overW.Load()
	for i := range h.sums {
		s += atomic.LoadInt64(&h.sums[i])
	}
	return s
}

// BucketLow returns the inclusive lower edge of regular bucket i.
func (h *Histogram) BucketLow(i int) int64 { return h.base << uint(i) }

// Snapshot materializes the histogram as a stats.LogHistogram, reusing
// its rendering and fraction analysis (String, FractionAtOrAbove,
// WeightFractionAtOrAbove). The snapshot is a consistent-enough copy
// for reporting; take it after the producing run has finished for an
// exact one.
func (h *Histogram) Snapshot() *stats.LogHistogram {
	lh := stats.NewLogHistogram(float64(h.base), h.buckets)
	lh.AddUnderflow(h.under.Load(), float64(h.underW.Load()))
	for i := 0; i < h.buckets; i++ {
		lh.AddBucket(i, atomic.LoadInt64(&h.counts[i]), float64(atomic.LoadInt64(&h.sums[i])))
	}
	lh.AddOverflow(h.over.Load(), float64(h.overW.Load()))
	return lh
}
