package pareto

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"memcon/internal/stats"
)

func TestFitCCDFTailDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	truth := Dist{Xm: 8, Alpha: 0.9}
	samples := make([]float64, 5000)
	for i := range samples {
		samples[i] = truth.Sample(rng)
	}
	fit, err := FitCCDFTail(samples, nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	if fit.R2 < 0.95 {
		t.Errorf("tail fit R2 = %v on pure Pareto data", fit.R2)
	}
	if fit.Dist.Alpha < 0.7 || fit.Dist.Alpha > 1.1 {
		t.Errorf("tail alpha = %v, want ~0.9", fit.Dist.Alpha)
	}
}

func TestFitCCDFTailMixture(t *testing.T) {
	// A light-tailed body (exponential) polluting a Pareto tail: the
	// naive full-range fit degrades, the tail fit recovers.
	rng := rand.New(rand.NewSource(6))
	truth := Dist{Xm: 64, Alpha: 0.7}
	var samples []float64
	for i := 0; i < 8000; i++ {
		samples = append(samples, rng.ExpFloat64()*20) // body
	}
	for i := 0; i < 3000; i++ {
		samples = append(samples, truth.Sample(rng)) // tail
	}
	full, errFull := FitCCDF(samples)
	tail, errTail := FitCCDFTail(samples, nil, 64)
	if errTail != nil {
		t.Fatal(errTail)
	}
	if errFull == nil && tail.R2 < full.R2 {
		t.Errorf("tail fit R2 %v not above full-range fit %v", tail.R2, full.R2)
	}
	if tail.R2 < 0.9 {
		t.Errorf("tail fit R2 = %v, want >= 0.9", tail.R2)
	}
}

func TestFitCCDFTailErrors(t *testing.T) {
	// Not enough samples above any candidate.
	if _, err := FitCCDFTail([]float64{1, 2, 3}, nil, 64); err == nil {
		t.Error("tiny sample accepted")
	}
	// Candidates that exclude everything.
	if _, err := FitCCDFTail([]float64{1, 2, 3, 4, 5, 6, 7, 8}, []float64{1e12}, 4); err == nil {
		t.Error("empty-tail candidates accepted")
	}
	// Degenerate data above the threshold: FitCCDF errors propagate.
	same := make([]float64, 100)
	for i := range same {
		same[i] = 42
	}
	if _, err := FitCCDFTail(same, []float64{1}, 16); err == nil {
		t.Error("degenerate tail accepted")
	}
}

func TestFitCCDFTailMinTailFloor(t *testing.T) {
	// minTail below 16 is clamped; with 20 samples and the clamp, a
	// candidate at the median keeps >= 16 only at low thresholds.
	rng := rand.New(rand.NewSource(7))
	truth := Dist{Xm: 2, Alpha: 1.2}
	samples := make([]float64, 400)
	for i := range samples {
		samples[i] = truth.Sample(rng)
	}
	fit, err := FitCCDFTail(samples, nil, 1) // clamped to 16 internally
	if err != nil {
		t.Fatal(err)
	}
	if fit.Points < 4 {
		t.Errorf("fit used only %d points", fit.Points)
	}
}

// fitCCDFRef is FitCCDF as it was before FitCCDFTail sorted its sample
// once: filter, sort and fit a copy of each sample it is handed.
func fitCCDFRef(samples []float64) (Fit, error) {
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
		if i+1 < len(xs) && xs[i+1] == xs[i] {
			continue
		}
		ccdf := (n - float64(i+1)) / n
		if ccdf <= 0 {
			continue
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
	k := math.Pow(10, lf.Intercept)
	xm := math.Pow(k, 1/alpha)
	return Fit{Dist: Dist{Xm: xm, Alpha: alpha}, R2: lf.R2, Points: len(logX)}, nil
}

// fitCCDFTailRef is FitCCDFTail's loop as it was: each candidate's tail
// built by append, then handed to fitCCDFRef.
func fitCCDFTailRef(samples []float64, candidates []float64, minTail int) (Fit, error) {
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
		fit, err := fitCCDFRef(tail)
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

// sameFit reports whether two fits are bit-identical.
func sameFit(a, b Fit) bool {
	bits := math.Float64bits
	return bits(a.Dist.Xm) == bits(b.Dist.Xm) && bits(a.Dist.Alpha) == bits(b.Dist.Alpha) &&
		bits(a.R2) == bits(b.R2) && a.Points == b.Points
}

// TestFitCCDFTailMatchesReference holds FitCCDFTail and FitCCDF to the
// per-candidate loop on random samples holding NaN, ±Inf, ±0, negative
// values and runs of duplicates, over the default candidates and over
// random grids that include values ≤ 0, ±Inf and NaN, out of order.
func TestFitCCDFTailMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -3, 1, 4096}
	fits := 0
	for i := 0; i < 4000; i++ {
		truth := Dist{Xm: 0.5 + 8*rng.Float64(), Alpha: 0.3 + 1.5*rng.Float64()}
		samples := make([]float64, rng.Intn(160))
		for j := range samples {
			switch r := rng.Intn(20); {
			case r == 0:
				samples[j] = specials[rng.Intn(len(specials))]
			case r == 1 && j > 0:
				samples[j] = samples[rng.Intn(j)]
			case r == 2:
				samples[j] = math.Round(truth.Sample(rng))
			default:
				samples[j] = truth.Sample(rng)
			}
		}
		var candidates []float64
		if rng.Intn(3) > 0 {
			candidates = make([]float64, 1+rng.Intn(6))
			for j := range candidates {
				if rng.Intn(6) == 0 {
					candidates[j] = specials[rng.Intn(len(specials))]
				} else {
					candidates[j] = math.Ldexp(1, rng.Intn(10)-2)
				}
			}
		}
		minTail := rng.Intn(40)

		want, wantErr := fitCCDFTailRef(samples, candidates, minTail)
		if wantErr == nil {
			fits++
		}
		got, gotErr := FitCCDFTail(samples, candidates, minTail)
		if !sameFit(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("case %d (%d samples, candidates %v, minTail %d): FitCCDFTail = %+v, %v; reference %+v, %v",
				i, len(samples), candidates, minTail, got, gotErr, want, wantErr)
		}
		want, wantErr = fitCCDFRef(samples)
		got, gotErr = FitCCDF(samples)
		if !sameFit(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("case %d (%d samples): FitCCDF = %+v, %v; reference %+v, %v", i, len(samples), got, gotErr, want, wantErr)
		}
	}
	// 3,121 of the cases fit a tail; the rest exercise the errors.
	if fits < 2000 {
		t.Errorf("only %d of 4000 cases fit a tail", fits)
	}
}
