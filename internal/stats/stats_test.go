package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
	if got := Mean([]float64{1, 2, 3}); !almostEqual(got, 2, 1e-12) {
		t.Errorf("Mean = %v, want 2", got)
	}
}

func TestFitLineExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 2, 1e-12) || !almostEqual(fit.Intercept, 1, 1e-12) {
		t.Errorf("fit = %+v, want slope 2 intercept 1", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-12) {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
}

func TestFitLineNoisy(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{0.1, 0.9, 2.2, 2.8, 4.1}
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if fit.R2 < 0.98 {
		t.Errorf("R2 = %v, want >= 0.98 for mildly noisy data", fit.R2)
	}
	if fit.Slope < 0.9 || fit.Slope > 1.1 {
		t.Errorf("Slope = %v, want ~1", fit.Slope)
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{1}); err == nil {
		t.Error("single point should error")
	}
	if _, err := FitLine([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := FitLine([]float64{2, 2}, []float64{1, 5}); err == nil {
		t.Error("degenerate x should error")
	}
}

// Property: the OLS fit of any strictly linear data recovers the line and
// reports R² = 1.
func TestFitLineRecoversLinesProperty(t *testing.T) {
	f := func(slope, intercept float64, n uint8) bool {
		if math.IsNaN(slope) || math.IsInf(slope, 0) || math.IsNaN(intercept) || math.IsInf(intercept, 0) {
			return true
		}
		// Bound magnitudes to avoid float overflow artifacts.
		if math.Abs(slope) > 1e6 || math.Abs(intercept) > 1e6 {
			return true
		}
		points := int(n%20) + 2
		xs := make([]float64, points)
		ys := make([]float64, points)
		for i := range xs {
			xs[i] = float64(i)
			ys[i] = slope*xs[i] + intercept
		}
		fit, err := FitLine(xs, ys)
		if err != nil {
			return false
		}
		scale := math.Max(1, math.Max(math.Abs(slope), math.Abs(intercept)))
		return almostEqual(fit.Slope, slope, 1e-6*scale) &&
			almostEqual(fit.Intercept, intercept, 1e-6*scale)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogHistogramBuckets(t *testing.T) {
	h := NewLogHistogram(1, 16)
	h.Add(0.5)  // underflow
	h.Add(1)    // bucket 0 [1,2)
	h.Add(1.99) // bucket 0
	h.Add(2)    // bucket 1 [2,4)
	h.Add(1024) // bucket 10
	h.Add(1 << 20)
	if h.Underflow() != 1 {
		t.Errorf("underflow = %d, want 1", h.Underflow())
	}
	if h.Count(0) != 2 {
		t.Errorf("bucket 0 = %d, want 2", h.Count(0))
	}
	if h.Count(1) != 1 {
		t.Errorf("bucket 1 = %d, want 1", h.Count(1))
	}
	if h.Count(10) != 1 {
		t.Errorf("bucket 10 = %d, want 1", h.Count(10))
	}
	if h.Overflow() != 1 {
		t.Errorf("overflow = %d, want 1", h.Overflow())
	}
	if h.Total() != 6 {
		t.Errorf("total = %d, want 6", h.Total())
	}
}

func TestLogHistogramFractions(t *testing.T) {
	h := NewLogHistogram(1, 20)
	for i := 0; i < 99; i++ {
		h.Add(0.5) // all under 1
	}
	h.Add(2048)
	if got := h.FractionAtOrAbove(1024); !almostEqual(got, 0.01, 1e-9) {
		t.Errorf("FractionAtOrAbove(1024) = %v, want 0.01", got)
	}
	// Time share: the single long interval dominates accumulated weight.
	wf := h.WeightFractionAtOrAbove(1024)
	want := 2048.0 / (2048.0 + 99*0.5)
	if !almostEqual(wf, want, 1e-9) {
		t.Errorf("WeightFractionAtOrAbove = %v, want %v", wf, want)
	}
}

func TestLogHistogramPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive base")
		}
	}()
	NewLogHistogram(0, 4)
}

func TestLogHistogramString(t *testing.T) {
	h := NewLogHistogram(1, 4)
	h.Add(0.5)
	h.Add(3)
	h.Add(100)
	s := h.String()
	if s == "" {
		t.Error("String() should not be empty")
	}
}

// Property: counts across underflow + buckets + overflow always equal the
// number of Add calls.
func TestLogHistogramConservationProperty(t *testing.T) {
	f := func(vals []float64) bool {
		h := NewLogHistogram(1, 12)
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			h.Add(math.Abs(v))
		}
		var sum int64 = h.Underflow() + h.Overflow()
		for i := 0; i < h.Buckets; i++ {
			sum += h.Count(i)
		}
		return sum == h.Total()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
