// Package pareto implements the Pareto (power-law) distribution machinery
// the MEMCON paper relies on: sampling, CCDF evaluation, empirical CCDF
// construction, log-log linear fitting with R² (Fig. 8), and the
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

// CCDF returns P(X > x).
func (d Dist) CCDF(x float64) float64 {
	if x <= d.Xm {
		return 1
	}
	return math.Pow(d.Xm/x, d.Alpha)
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
	if len(xs) < 8 {
		return Fit{}, ErrInsufficientData
	}
	sort.Float64s(xs)

	n := float64(len(xs))
	var logX, logP []float64
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
		logX = append(logX, math.Log10(xs[i]))
		logP = append(logP, math.Log10(ccdf))
	}
	if len(logX) < 4 {
		return Fit{}, ErrInsufficientData
	}
	lf, err := stats.FitLine(logX, logP)
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
		Points: len(logX),
	}, nil
}

// FitCCDFTail fits a Pareto distribution to the heavy tail of a sample
// whose body may be polluted by a lighter-tailed mixture component (the
// standard situation for write intervals: short pauses coexist with the
// Pareto idle tail). It tries each candidate lower threshold, fits the
// sub-sample at or above it, and returns the fit with the best R² among
// thresholds that keep at least minTail samples — a lightweight version
// of the usual xmin-selection for power-law fitting. Candidates default
// to powers of two from 1 to 4096 when nil.
func FitCCDFTail(samples []float64, candidates []float64, minTail int) (Fit, error) {
	if candidates == nil {
		for x := 1.0; x <= 4096; x *= 2 {
			candidates = append(candidates, x)
		}
	}
	if minTail < 16 {
		minTail = 16
	}
	best := Fit{R2: -1}
	var firstErr error
	for _, c := range candidates {
		var tail []float64
		for _, s := range samples {
			if s >= c {
				tail = append(tail, s)
			}
		}
		if len(tail) < minTail {
			continue
		}
		fit, err := FitCCDF(tail)
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
// fraction whose remaining length exceeds L.
func ConditionalExceedEmpirical(samples []float64, c, l float64) float64 {
	var atLeastC, exceed int
	for _, x := range samples {
		if x >= c {
			atLeastC++
			if x > c+l {
				exceed++
			}
		}
	}
	if atLeastC == 0 {
		return 0
	}
	return float64(exceed) / float64(atLeastC)
}

// CoverageAtCIL computes the Fig. 12 metric: the fraction of the total
// write-interval time that remains exploitable when prediction waits for
// an elapsed time of c before declaring an interval long. Intervals
// shorter than c contribute nothing; longer intervals contribute their
// remaining length x-c.
func CoverageAtCIL(samples []float64, c float64) float64 {
	var total, covered float64
	for _, x := range samples {
		if x <= 0 {
			continue
		}
		total += x
		if x > c {
			covered += x - c
		}
	}
	if total == 0 {
		return 0
	}
	return covered / total
}
