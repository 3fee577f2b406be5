package pareto

import (
	"math/rand"
	"testing"
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
