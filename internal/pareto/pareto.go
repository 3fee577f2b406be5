// Package pareto implements the Pareto (power-law) distribution machinery
// the MEMCON paper relies on: sampling, empirical CCDF construction,
// log-log linear fitting with R² (Fig. 8), and the
// decreasing-hazard-rate conditionals used by the PRIL predictor
// (Fig. 11: P(remaining interval > L | elapsed >= c)).
package pareto

import (
	"errors"
	"math"
	"math/rand"
	"sort"

	"memcon/internal/stats"
)

// Dist is a (Type I) Pareto distribution with scale Xm > 0 and shape
// Alpha > 0. The complementary CDF is P(X > x) = (Xm/x)^Alpha for x >= Xm.
type Dist struct {
	Xm    float64
	Alpha float64
}

// Sample draws one value using rng.
func (d Dist) Sample(rng *rand.Rand) float64 {
	// Inverse-transform sampling; 1-Float64() is in (0,1].
	u := 1 - rng.Float64()
	return d.Xm / math.Pow(u, 1/d.Alpha)
}

// Fit is the result of fitting a Pareto tail to an empirical sample via
// log-log linear regression on the CCDF, the method used in Fig. 8.
type Fit struct {
	Dist Dist
	// R2 is the coefficient of determination of the log-log fit; the
	// paper reports values above 0.93 for its workload traces.
	R2 float64
	// Points is the number of CCDF points used in the regression.
	Points int
}

// ErrInsufficientData indicates there were not enough distinct sample
// values to fit a distribution.
var ErrInsufficientData = errors.New("pareto: insufficient data for fit")

// FitCCDF fits a Pareto distribution to the samples by linear regression
// of log10(CCDF) against log10(x). Samples must be positive; non-positive
// values are ignored. The fit uses one CCDF point per distinct value.
func FitCCDF(samples []float64) (Fit, error) {
	xs := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s > 0 && !math.IsInf(s, 0) && !math.IsNaN(s) {
			xs = append(xs, s)
		}
	}
	sort.Float64s(xs)
	var r regression
	return r.fit(xs)
}

// regression holds the log-log points of a CCDF fit, reused across the
// fits of one FitCCDFTail call.
type regression struct {
	logX, logP []float64
}

// fit fits a Pareto distribution to xs, which must be sorted, positive
// and finite.
func (r *regression) fit(xs []float64) (Fit, error) {
	if len(xs) < 8 {
		return Fit{}, ErrInsufficientData
	}
	n := float64(len(xs))
	r.logX, r.logP = r.logX[:0], r.logP[:0]
	for i := 0; i < len(xs); i++ {
		// Skip duplicates: use the last index for each distinct value so
		// the CCDF point is exact.
		if i+1 < len(xs) && xs[i+1] == xs[i] {
			continue
		}
		ccdf := (n - float64(i+1)) / n
		if ccdf <= 0 {
			continue // the maximum has empirical CCDF 0; log undefined
		}
		r.logX = append(r.logX, math.Log10(xs[i]))
		r.logP = append(r.logP, math.Log10(ccdf))
	}
	if len(r.logX) < 4 {
		return Fit{}, ErrInsufficientData
	}
	lf, err := stats.FitLine(r.logX, r.logP)
	if err != nil {
		return Fit{}, err
	}
	alpha := -lf.Slope
	if alpha <= 0 {
		return Fit{}, errors.New("pareto: fitted non-positive alpha; data is not heavy-tailed")
	}
	// log10 P = log10 k - alpha*log10 x, with k = Xm^alpha.
	k := math.Pow(10, lf.Intercept)
	xm := math.Pow(k, 1/alpha)
	return Fit{
		Dist:   Dist{Xm: xm, Alpha: alpha},
		R2:     lf.R2,
		Points: len(r.logX),
	}, nil
}

// FitCCDFTail fits a Pareto distribution to the heavy tail of a sample
// whose body may be polluted by a lighter-tailed mixture component (the
// standard situation for write intervals: short pauses coexist with the
// Pareto idle tail). It tries each candidate lower threshold, fits the
// sub-sample at or above it, and returns the fit with the best R² among
// thresholds that keep at least minTail samples — a lightweight version
// of the usual xmin-selection for power-law fitting. Candidates default
// to powers of two from 1 to 4096 when nil. The sample is sorted once:
// each candidate's tail is a suffix of it, fitted as FitCCDF fits it.
func FitCCDFTail(samples []float64, candidates []float64, minTail int) (Fit, error) {
	if candidates == nil {
		for x := 1.0; x <= 4096; x *= 2 {
			candidates = append(candidates, x)
		}
	}
	if minTail < 16 {
		minTail = 16
	}
	xs := make([]float64, 0, len(samples))
	for _, s := range samples {
		if !math.IsNaN(s) {
			xs = append(xs, s)
		}
	}
	sort.Float64s(xs)
	// xs[pos:inf] are the values FitCCDF keeps: positive and finite.
	pos := sort.Search(len(xs), func(i int) bool { return xs[i] > 0 })
	inf := sort.Search(len(xs), func(i int) bool { return math.IsInf(xs[i], 1) })
	best := Fit{R2: -1}
	var firstErr error
	var r regression
	for _, c := range candidates {
		from := sort.SearchFloat64s(xs, c) // len(xs) for a NaN candidate
		if len(xs)-from < minTail {
			continue
		}
		fit, err := r.fit(xs[max(from, pos):inf])
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if fit.R2 > best.R2 {
			best = fit
		}
	}
	if best.R2 < 0 {
		if firstErr != nil {
			return Fit{}, firstErr
		}
		return Fit{}, ErrInsufficientData
	}
	return best, nil
}

// ConditionalExceedEmpirical computes P(X > c+L | X >= c) from a sample,
// the empirical form of Fig. 11: of all intervals at least c long, the
// fraction whose remaining length exceeds L. It is CILFold's one-point
// case.
func ConditionalExceedEmpirical(samples []float64, c, l float64) float64 {
	f := NewCILFold([]float64{c}, l)
	for _, x := range samples {
		f.Add(x)
	}
	return f.ConditionalExceed(0)
}

// CoverageAtCIL computes the Fig. 12 metric: the fraction of the total
// write-interval time that remains exploitable when prediction waits for
// an elapsed time of c before declaring an interval long. Intervals
// shorter than c contribute nothing; longer intervals contribute their
// remaining length x-c. It is CILFold's one-point case.
func CoverageAtCIL(samples []float64, c float64) float64 {
	f := NewCILFold([]float64{c}, 0)
	for _, x := range samples {
		f.Add(x)
	}
	return f.Coverage(0)
}

// CILFold computes ConditionalExceedEmpirical and CoverageAtCIL at
// every point of a current-interval-length grid in one pass over a
// sample that it never holds: Figs. 11 and 12 sweep their whole grid
// while the intervals stream past. Each grid point takes the same
// terms in the same order as the one-point functions, so the results
// are bit-identical to them.
type CILFold struct {
	grid []float64
	l    float64
	// atLeast[j] counts samples >= grid[j], and exceed[j] those of them
	// > grid[j]+l. covered[j] sums x-grid[j] over positive samples
	// > grid[j]; total sums every sample that is not <= 0.
	atLeast, exceed []int
	covered         []float64
	total           float64
}

// NewCILFold returns an empty fold over grid, which must be
// non-decreasing, for remaining length l. It panics on a grid out of
// order or holding NaN beside other points.
func NewCILFold(grid []float64, l float64) *CILFold {
	for j := 1; j < len(grid); j++ {
		if !(grid[j-1] <= grid[j]) {
			panic("pareto: CIL grid not in non-decreasing order")
		}
	}
	return &CILFold{
		grid:    grid,
		l:       l,
		atLeast: make([]int, len(grid)),
		exceed:  make([]int, len(grid)),
		covered: make([]float64, len(grid)),
	}
}

// Add folds in one sample. The grid loop ends at the first point above
// x (at once for NaN): no later point can count it.
func (f *CILFold) Add(x float64) {
	if !(x <= 0) {
		f.total += x
	}
	for j, c := range f.grid {
		if !(x >= c) {
			return
		}
		f.atLeast[j]++
		if x > c+f.l {
			f.exceed[j]++
		}
		if x > c && x > 0 {
			f.covered[j] += x - c
		}
	}
}

// ConditionalExceed returns P(X > c+L | X >= c) at grid point j, or 0
// when no sample reached it.
func (f *CILFold) ConditionalExceed(j int) float64 {
	if f.atLeast[j] == 0 {
		return 0
	}
	return float64(f.exceed[j]) / float64(f.atLeast[j])
}

// Coverage returns the share of the total sample time beyond grid
// point j, or 0 when the total is 0.
func (f *CILFold) Coverage(j int) float64 {
	if f.total == 0 {
		return 0
	}
	return f.covered[j] / f.total
}
