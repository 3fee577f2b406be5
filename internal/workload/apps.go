// Package workload synthesizes the two workload families the MEMCON
// evaluation consumes, substituting for inputs this reproduction cannot
// have (FPGA bus traces of commercial applications and SPEC CPU2006
// memory-content dumps):
//
//   - Long-running application write traces (Table 1 analogues): per-page
//     DRAM write-back streams whose idle intervals follow
//     per-application Pareto distributions, reproducing the statistical
//     structure the paper measures (Figs. 7-12) — >95% of writes within
//     1 ms of the previous write, a heavy tail of long intervals
//     carrying ~90% of the execution time, and long-idle episodes that
//     are predominantly single write-backs (the property PRIL's
//     one-write-per-quantum filter relies on, §4.2 footnote).
//   - SPEC CPU2006 memory-content images (Fig. 4): per-benchmark bit
//     images with characteristic sparsity/entropy so different
//     benchmarks excite different numbers of data-dependent failures.
//
// It also carries the per-benchmark core-model parameters the
// performance simulator uses for SPEC/TPC multiprogrammed mixes.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"memcon/internal/pareto"
	"memcon/internal/trace"
)

// AppSpec describes one long-running application trace generator. The
// reporting fields mirror Table 1 of the paper; the rest parameterize
// the statistical structure of the generated write-back stream.
//
// Two page populations model what a memory-bus tracer sees:
//
//   - Hot pages (a small fraction) absorb most of the write COUNT: they
//     emit dense clusters of write-backs (sub-millisecond gaps) with
//     short exponential pauses. They are rewritten every quantum and are
//     never predicted long — correctly so.
//   - Cold pages carry most of the page population and the TIME: each
//     emits short write episodes (usually a single write-back,
//     occasionally a few within a millisecond) separated by
//     Pareto-distributed idle gaps.
type AppSpec struct {
	// Name is the application name (Table 1).
	Name string
	// Type is the application domain, for reporting.
	Type string
	// DurationSec is the traced execution time in seconds.
	DurationSec float64
	// MemGB is the nominal footprint, for reporting only.
	MemGB float64
	// Threads is the nominal thread count, for reporting only.
	Threads int

	// Pages is the number of distinct pages touched at full scale.
	Pages int
	// HotFraction is the fraction of hot pages.
	HotFraction float64
	// HotClusterLen is the mean number of write-backs per hot cluster.
	HotClusterLen int
	// HotPauseMs is the mean of the exponential pause between hot
	// clusters, in milliseconds (well below the 1024 ms threshold).
	HotPauseMs float64
	// EpisodeExtra is the probability that a cold episode carries extra
	// write-backs beyond the first (small: episodes are mostly
	// singletons, which is what lets PRIL's one-write-per-quantum filter
	// keep its accuracy).
	EpisodeExtra float64
	// IntraGapUs is the mean microseconds between write-backs inside an
	// episode or cluster.
	IntraGapUs float64
	// IdleDist is the Pareto distribution of cold idle gaps, in
	// milliseconds.
	IdleDist pareto.Dist
}

// Apps returns the twelve long-running application generators standing
// in for the paper's Table 1 workloads. Streaming and playback
// workloads idle longest (small alpha, large scale); system-management
// and gaming workloads rewrite more.
func Apps() []AppSpec {
	return []AppSpec{
		{Name: "ACBrotherHood", Type: "Game", DurationSec: 209.1, MemGB: 2.8, Threads: 8,
			Pages: 3000, HotFraction: 0.010, HotClusterLen: 110, HotPauseMs: 150,
			EpisodeExtra: 0.09, IntraGapUs: 90, IdleDist: pareto.Dist{Xm: 1200, Alpha: 0.62}},
		{Name: "AdobePhotoshop", Type: "Photo editing", DurationSec: 149.2, MemGB: 3.0, Threads: 4,
			Pages: 2600, HotFraction: 0.011, HotClusterLen: 100, HotPauseMs: 140,
			EpisodeExtra: 0.08, IntraGapUs: 100, IdleDist: pareto.Dist{Xm: 1500, Alpha: 0.59}},
		{Name: "AllSysMark", Type: "Media creation", DurationSec: 300.0, MemGB: 3.4, Threads: 4,
			Pages: 3200, HotFraction: 0.009, HotClusterLen: 110, HotPauseMs: 160,
			EpisodeExtra: 0.08, IntraGapUs: 95, IdleDist: pareto.Dist{Xm: 1400, Alpha: 0.60}},
		{Name: "AVCHD", Type: "Video playback", DurationSec: 217.3, MemGB: 5.2, Threads: 2,
			Pages: 2400, HotFraction: 0.009, HotClusterLen: 130, HotPauseMs: 180,
			EpisodeExtra: 0.05, IntraGapUs: 80, IdleDist: pareto.Dist{Xm: 2500, Alpha: 0.52}},
		{Name: "BlurMotion", Type: "Image processing", DurationSec: 93.4, MemGB: 0.2, Threads: 2,
			Pages: 1400, HotFraction: 0.018, HotClusterLen: 90, HotPauseMs: 120,
			EpisodeExtra: 0.10, IntraGapUs: 110, IdleDist: pareto.Dist{Xm: 1200, Alpha: 0.65}},
		{Name: "FinalCutPro", Type: "Video editing", DurationSec: 76.9, MemGB: 3.0, Threads: 2,
			Pages: 2000, HotFraction: 0.013, HotClusterLen: 100, HotPauseMs: 130,
			EpisodeExtra: 0.08, IntraGapUs: 100, IdleDist: pareto.Dist{Xm: 1400, Alpha: 0.60}},
		{Name: "FinalMaster", Type: "Movie display", DurationSec: 248.1, MemGB: 2.0, Threads: 2,
			Pages: 2200, HotFraction: 0.009, HotClusterLen: 120, HotPauseMs: 170,
			EpisodeExtra: 0.06, IntraGapUs: 85, IdleDist: pareto.Dist{Xm: 2000, Alpha: 0.55}},
		{Name: "AdobePremiere", Type: "Video editing", DurationSec: 298.8, MemGB: 5.0, Threads: 2,
			Pages: 2800, HotFraction: 0.010, HotClusterLen: 105, HotPauseMs: 150,
			EpisodeExtra: 0.08, IntraGapUs: 95, IdleDist: pareto.Dist{Xm: 1600, Alpha: 0.58}},
		{Name: "MotionPlayBack", Type: "Video processing", DurationSec: 233.9, MemGB: 5.6, Threads: 2,
			Pages: 2500, HotFraction: 0.008, HotClusterLen: 135, HotPauseMs: 190,
			EpisodeExtra: 0.05, IntraGapUs: 75, IdleDist: pareto.Dist{Xm: 3000, Alpha: 0.50}},
		{Name: "Netflix", Type: "Video streaming", DurationSec: 229.4, MemGB: 4.6, Threads: 2,
			Pages: 2300, HotFraction: 0.008, HotClusterLen: 140, HotPauseMs: 200,
			EpisodeExtra: 0.04, IntraGapUs: 70, IdleDist: pareto.Dist{Xm: 4000, Alpha: 0.50}},
		{Name: "SystemMgt", Type: "Win 7 managing", DurationSec: 300.0, MemGB: 7.6, Threads: 2,
			Pages: 3600, HotFraction: 0.010, HotClusterLen: 90, HotPauseMs: 130,
			EpisodeExtra: 0.10, IntraGapUs: 110, IdleDist: pareto.Dist{Xm: 1200, Alpha: 0.64}},
		{Name: "VideoEncode", Type: "Video encoding", DurationSec: 299.1, MemGB: 7.3, Threads: 4,
			Pages: 3000, HotFraction: 0.009, HotClusterLen: 105, HotPauseMs: 150,
			EpisodeExtra: 0.08, IntraGapUs: 95, IdleDist: pareto.Dist{Xm: 1600, Alpha: 0.58}},
	}
}

// AppByName returns the spec with the given name.
func AppByName(name string) (AppSpec, error) {
	for _, a := range Apps() {
		if a.Name == name {
			return a, nil
		}
	}
	return AppSpec{}, fmt.Errorf("workload: unknown application %q", name)
}

// Generate synthesizes the application's write trace. The result is
// deterministic in (spec, seed). Scale in (0, 1] shrinks the page count
// proportionally to bound generation cost in tests; values outside the
// range, NaN included, mean full scale.
func (a AppSpec) Generate(seed int64, scale float64) *trace.Trace {
	var b trace.Builder
	a.generate(seed, scale, writeSink{b: &b})
	return b.Trace(a.Name, a.Duration())
}

// EachInterval calls fn with every write interval of the trace Generate
// would return for (seed, scale), in milliseconds and in the order of
// that trace's Intervals(includeTrailing): page after page in
// ascending order, each page's gaps in time order and then, when
// includeTrailing is set, its open interval to the end of the trace.
// It runs Generate's own loop and hands fn each interval as soon as it
// is known: a gap when the write that closes it is drawn, a trailing
// interval when the next page starts. It keeps no trace, so its
// allocation does not grow with scale.
func (a AppSpec) EachInterval(seed int64, scale float64, includeTrailing bool, fn func(ms float64)) {
	s := &trace.IntervalSink{Fn: fn, Trailing: includeTrailing, End: a.Duration()}
	a.generate(seed, scale, writeSink{iv: s})
	s.Close()
}

// EachWrite calls fn with every write of the trace Generate would
// return for (seed, scale), in generator order: page after page in
// ascending order, each page's writes in time order, every one before
// Duration. It keeps no trace.
func (a AppSpec) EachWrite(seed int64, scale float64, fn func(page uint32, at trace.Microseconds)) {
	a.generate(seed, scale, writeSink{fn: fn})
}

// writeSink receives a generator's writes, page after page in
// ascending page order and each page's writes in time order: b collects
// them into a trace, iv turns them into intervals on the fly, and fn
// takes each one. Exactly one is set. The generators branch at each
// write and call b and iv directly, which keeps Builder.Add inlined on
// Generate's path: an interface call per write cost Generate ~9 % more
// CPU.
type writeSink struct {
	b  *trace.Builder
	iv *trace.IntervalSink
	fn func(page uint32, at trace.Microseconds)
}

// Duration is the traced execution time.
func (a AppSpec) Duration() trace.Microseconds {
	return trace.Microseconds(a.DurationSec * float64(trace.Second))
}

// generate draws the application's writes into sink, page after page
// in ascending page order and each page's writes in strictly
// increasing time.
func (a AppSpec) generate(seed int64, scale float64, sink writeSink) {
	if !(scale > 0 && scale <= 1) { // written so that NaN means full scale too
		scale = 1
	}
	rng := rand.New(rand.NewSource(seed))
	duration := a.Duration()
	pages := int(float64(a.Pages) * scale)
	if pages < 8 {
		pages = 8
	}
	hot := int(float64(pages)*a.HotFraction + 0.5)
	if hot < 1 {
		hot = 1
	}

	for p := 0; p < pages; p++ {
		page := uint32(p)
		if p < hot {
			a.genHotPage(rng, sink, page, duration)
		} else {
			a.genColdPage(rng, sink, page, duration)
		}
	}
}

// genHotPage emits dense write-back clusters with short exponential
// pauses: the page is rewritten every quantum and never idles long.
func (a AppSpec) genHotPage(rng *rand.Rand, sink writeSink, page uint32, duration trace.Microseconds) {
	at := trace.Microseconds(rng.Float64() * a.HotPauseMs * float64(trace.Millisecond))
	for at < duration {
		n := 1 + int(rng.ExpFloat64()*float64(a.HotClusterLen))
		for i := 0; i < n && at < duration; i++ {
			switch {
			case sink.b != nil:
				sink.b.Add(page, at)
			case sink.iv != nil:
				sink.iv.Add(page, at)
			default:
				sink.fn(page, at)
			}
			at += trace.Microseconds(rng.ExpFloat64()*a.IntraGapUs) + 1
		}
		at += trace.Microseconds(rng.ExpFloat64() * a.HotPauseMs * float64(trace.Millisecond))
	}
}

// GenerateReads synthesizes a READ trace matched to the application:
// hot pages are read at cluster cadence, cold pages are read at a
// per-page rate drawn log-uniformly between once per second and once
// per minute. Read traces feed the read-aware refresh-skip analysis
// (the paper's footnote-3 future work). Scale works as in Generate.
func (a AppSpec) GenerateReads(seed int64, scale float64) *trace.Trace {
	if !(scale > 0 && scale <= 1) { // written so that NaN means full scale too
		scale = 1
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eeded))
	duration := a.Duration()
	var b trace.Builder
	pages := int(float64(a.Pages) * scale)
	if pages < 8 {
		pages = 8
	}
	hot := int(float64(pages)*a.HotFraction + 0.5)
	if hot < 1 {
		hot = 1
	}
	for p := 0; p < pages; p++ {
		page := uint32(p)
		var meanGapUs float64
		if p < hot {
			meanGapUs = a.HotPauseMs * 1000 / 4 // read more often than written
		} else {
			// Log-uniform mean inter-read gap between 1 s and 60 s.
			meanGapUs = 1e6 * math.Exp(rng.Float64()*math.Log(60))
		}
		at := trace.Microseconds(rng.Float64() * meanGapUs)
		for at < duration {
			b.Add(page, at)
			at += trace.Microseconds(rng.ExpFloat64()*meanGapUs) + 1
		}
	}
	return b.Trace(a.Name+"-reads", duration)
}

// genColdPage emits the canonical MEMCON-friendly behaviour: mostly
// single write-backs separated by Pareto-distributed idle gaps;
// occasionally an episode carries a couple of extra write-backs within a
// millisecond.
func (a AppSpec) genColdPage(rng *rand.Rand, sink writeSink, page uint32, duration trace.Microseconds) {
	// Stagger page start times across the first idle scale.
	at := trace.Microseconds(rng.Float64() * float64(a.IdleDist.Xm) * float64(trace.Millisecond))
	for at < duration {
		n := 1
		if rng.Float64() < a.EpisodeExtra {
			n += 1 + rng.Intn(2)
		}
		for i := 0; i < n && at < duration; i++ {
			switch {
			case sink.b != nil:
				sink.b.Add(page, at)
			case sink.iv != nil:
				sink.iv.Add(page, at)
			default:
				sink.fn(page, at)
			}
			at += trace.Microseconds(rng.ExpFloat64()*a.IntraGapUs) + 1
		}
		gap := a.IdleDist.Sample(rng)
		at += trace.Microseconds(gap * float64(trace.Millisecond))
	}
}
