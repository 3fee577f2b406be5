package pareto

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// conditionalExceedLoop and coverageLoop are ConditionalExceedEmpirical
// and CoverageAtCIL as they were before CILFold: one pass over the
// sample per CIL. They are the references the fold is held to.
func conditionalExceedLoop(samples []float64, c, l float64) float64 {
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

func coverageLoop(samples []float64, c float64) float64 {
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

// checkFold folds samples over grid and fails the test unless every
// grid point, and each one-point function at it, equals the reference
// loops bit for bit.
func checkFold(t *testing.T, samples, grid []float64, l float64) {
	t.Helper()
	f := NewCILFold(grid, l)
	for _, x := range samples {
		f.Add(x)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for j, c := range grid {
		want := conditionalExceedLoop(samples, c, l)
		if got := f.ConditionalExceed(j); !same(got, want) {
			t.Fatalf("grid %v l %v samples %v: ConditionalExceed(%d) = %v, loop %v", grid, l, samples, j, got, want)
		}
		if got := ConditionalExceedEmpirical(samples, c, l); !same(got, want) {
			t.Fatalf("samples %v: ConditionalExceedEmpirical(c=%v, l=%v) = %v, loop %v", samples, c, l, got, want)
		}
		want = coverageLoop(samples, c)
		if got := f.Coverage(j); !same(got, want) {
			t.Fatalf("grid %v samples %v: Coverage(%d) = %v, loop %v", grid, samples, j, got, want)
		}
		if got := CoverageAtCIL(samples, c); !same(got, want) {
			t.Fatalf("samples %v: CoverageAtCIL(c=%v) = %v, loop %v", samples, c, got, want)
		}
	}
}

// foldPalette holds the values the generated samples and grids draw
// from: NaN, both infinities, both zeros, negatives, values on the
// Fig. 11/12 grid and on grid+1024, and values between them.
var foldPalette = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	-1, -1024, -0.5, 0.25, 0.999, 1, 1.5, 2, 3, 512, 1023, 1024, 1025,
	1536, 2048, 3072, 4096, 5120, 32768, 33792, 1e9,
}

// TestCILFoldMatchesLoops holds the fold to the reference loops on
// generated samples and grids: samples with NaN, ±Inf, zeros and
// negatives; grids with repeated points, negative and infinite points,
// and points beyond every sample.
func TestCILFoldMatchesLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	pick := func() float64 {
		if rng.Intn(3) == 0 {
			return rng.NormFloat64() * 2048
		}
		return foldPalette[rng.Intn(len(foldPalette))]
	}
	for i := 0; i < 3000; i++ {
		samples := make([]float64, rng.Intn(40))
		for k := range samples {
			samples[k] = pick()
		}
		grid := make([]float64, 1+rng.Intn(8))
		for k := range grid {
			for grid[k] = pick(); math.IsNaN(grid[k]); grid[k] = pick() {
			}
		}
		if rng.Intn(4) == 0 {
			grid = append(grid, grid[0]) // a repeated point
		}
		if rng.Intn(4) == 0 {
			grid = append(grid, 1e12) // beyond every sample
		}
		sort.Float64s(grid)
		l := []float64{1024, 0, -3, 1, math.Inf(1)}[rng.Intn(5)]
		checkFold(t, samples, grid, l)
	}
	// The Fig. 11/12 grid itself, and a one-point grid at NaN.
	checkFold(t, []float64{0.5, 1, 2, 1025, 2049, 40000, math.NaN(), -2, 0, math.Inf(1)},
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768}, 1024)
	checkFold(t, []float64{1, math.NaN(), 3}, []float64{math.NaN()}, 1024)
	checkFold(t, nil, []float64{1, 1, 2}, 1024)
}

// TestNewCILFoldRejectsUnorderedGrid: a grid out of order, or with NaN
// beside other points, would stop the fold's loop early.
func TestNewCILFoldRejectsUnorderedGrid(t *testing.T) {
	for _, grid := range [][]float64{{2, 1}, {1, math.NaN()}, {math.NaN(), 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCILFold(%v) did not panic", grid)
				}
			}()
			NewCILFold(grid, 1024)
		}()
	}
}

// FuzzCILFold holds the fold to the reference loops on arbitrary
// samples and grids. Each value is a palette entry or, after a byte of
// 255, the next eight bytes as a float64.
func FuzzCILFold(f *testing.F) {
	f.Add([]byte{3, 0, 9, 17, 21, 5, 1, 2, 3, 0, 4, 255, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Add([]byte{1, 2, 12, 12, 16, 6, 7, 8, 9, 10, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() float64 {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			if b == 255 && len(data) >= 8 {
				v := math.Float64frombits(binary.LittleEndian.Uint64(data))
				data = data[8:]
				return v
			}
			return foldPalette[int(b)%len(foldPalette)]
		}
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%8
		data = data[1:]
		l := next()
		grid := make([]float64, n)
		for k := range grid {
			grid[k] = next()
		}
		if n > 1 {
			for k := range grid {
				if math.IsNaN(grid[k]) {
					grid[k] = 0
				}
			}
		}
		sort.Float64s(grid)
		var samples []float64
		for len(data) > 0 {
			samples = append(samples, next())
		}
		checkFold(t, samples, grid, l)
	})
}
