package pareto

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSampleRespectsScale(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := Dist{Xm: 5, Alpha: 1.2}
	for i := 0; i < 1000; i++ {
		if x := d.Sample(rng); x < d.Xm {
			t.Fatalf("sample %v below Xm %v", x, d.Xm)
		}
	}
}

func TestSampleMatchesCCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := Dist{Xm: 1, Alpha: 1.5}
	const n = 200000
	var above float64
	threshold := 4.0
	for i := 0; i < n; i++ {
		if d.Sample(rng) > threshold {
			above++
		}
	}
	got := above / n
	want := math.Pow(d.Xm/threshold, d.Alpha) // P(X > x) = (Xm/x)^α for x >= Xm
	if math.Abs(got-want) > 0.01 {
		t.Errorf("empirical CCDF(%v) = %v, analytic %v", threshold, got, want)
	}
}

// samples draws n values from d.
func samples(d Dist, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.Sample(rng)
	}
	return xs
}

// Decreasing hazard rate: the conditional probability of surviving a
// further L grows with elapsed time c. This is the property PRIL exploits.
func TestConditionalExceedIncreasesWithElapsed(t *testing.T) {
	xs := samples(Dist{Xm: 1, Alpha: 0.9}, 200000, 3)
	prev := 0.0
	for _, c := range []float64{1, 4, 16, 64, 256, 1024, 4096} {
		p := ConditionalExceedEmpirical(xs, c, 1024)
		if p < prev {
			t.Errorf("ConditionalExceed not monotone: c=%v p=%v prev=%v", c, p, prev)
		}
		prev = p
	}
	if prev < 0.7 {
		t.Errorf("conditional survival at large elapsed = %v, want approaching 1", prev)
	}
}

// The empirical conditional over Pareto samples must match the analytic
// CCDF ratio P(X > c+L) / P(X > c) within four standard errors.
func TestConditionalExceedProperty(t *testing.T) {
	const n = 200000
	for _, alpha := range []float64{0.5, 1, 2} {
		d := Dist{Xm: 1, Alpha: alpha}
		ccdf := func(x float64) float64 { return math.Pow(d.Xm/x, d.Alpha) } // for x >= Xm
		xs := samples(d, n, int64(10*alpha))
		for _, c := range []float64{1, 2, 8} {
			for _, l := range []float64{1, 10, 100} {
				got := ConditionalExceedEmpirical(xs, c, l)
				want := ccdf(c+l) / ccdf(c)
				if se := math.Sqrt(want * (1 - want) / (n * ccdf(c))); math.Abs(got-want) > 4*se+1e-3 {
					t.Errorf("alpha %v c %v L %v: empirical %v, analytic %v", alpha, c, l, got, want)
				}
			}
		}
	}
}

func TestFitCCDFRecoversParameters(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	truth := Dist{Xm: 2, Alpha: 1.3}
	samples := make([]float64, 20000)
	for i := range samples {
		samples[i] = truth.Sample(rng)
	}
	fit, err := FitCCDFTail(samples, []float64{0}, 0) // the whole range
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Dist.Alpha-truth.Alpha) > 0.1 {
		t.Errorf("fitted alpha = %v, want ~%v", fit.Dist.Alpha, truth.Alpha)
	}
	if fit.R2 < 0.98 {
		t.Errorf("R2 = %v, want >= 0.98 for true Pareto data", fit.R2)
	}
}

func TestFitCCDFErrors(t *testing.T) {
	whole := []float64{0}
	if _, err := FitCCDFTail(nil, whole, 0); err != ErrInsufficientData {
		t.Errorf("empty fit error = %v, want ErrInsufficientData", err)
	}
	if _, err := FitCCDFTail([]float64{1, 2, 3}, whole, 0); err != ErrInsufficientData {
		t.Errorf("tiny fit error = %v, want ErrInsufficientData", err)
	}
	// Increasing-tail (anti-heavy) data should be rejected via alpha <= 0.
	uniformish := make([]float64, 100)
	for i := range uniformish {
		uniformish[i] = 1 // all identical: only one distinct CCDF point
	}
	if _, err := FitCCDFTail(uniformish, whole, 0); err == nil {
		t.Error("degenerate data should not fit")
	}
}

func TestConditionalExceedEmpirical(t *testing.T) {
	// Intervals: 10 short (5), 5 medium (100), 5 long (2000).
	var samples []float64
	for i := 0; i < 10; i++ {
		samples = append(samples, 5)
	}
	for i := 0; i < 5; i++ {
		samples = append(samples, 100, 2000)
	}
	// Given elapsed >= 50, intervals in play are the 100s and 2000s.
	// Remaining > 1024 requires x > 1074, so only the 2000s qualify.
	got := ConditionalExceedEmpirical(samples, 50, 1024)
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("conditional = %v, want 0.5", got)
	}
	if got := ConditionalExceedEmpirical(nil, 1, 1); got != 0 {
		t.Errorf("empty sample conditional = %v, want 0", got)
	}
}

func TestCoverageAtCIL(t *testing.T) {
	samples := []float64{100, 100, 1000}
	// c=100: the two 100s contribute 0, the 1000 contributes 900.
	got := CoverageAtCIL(samples, 100)
	want := 900.0 / 1200.0
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("coverage = %v, want %v", got, want)
	}
	if got := CoverageAtCIL(nil, 10); got != 0 {
		t.Errorf("empty coverage = %v, want 0", got)
	}
}

// Property: coverage is monotonically non-increasing in the waiting time c,
// the accuracy-vs-coverage tradeoff in Section 4.1.
func TestCoverageMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 4 {
			return true
		}
		samples := make([]float64, len(raw))
		for i, r := range raw {
			samples[i] = float64(r) + 1
		}
		prev := 1.1
		for _, c := range []float64{0, 8, 64, 512, 4096, 32768} {
			cov := CoverageAtCIL(samples, c)
			if cov > prev+1e-12 {
				return false
			}
			prev = cov
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
