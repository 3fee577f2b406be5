package softmc

import (
	"math"
	"math/rand"
	"testing"

	"memcon/internal/dram"
)

// TestRandomFillMatchesMathRand is the oracle for the direct fill: it
// must produce rand.New(rand.NewSource(s)).Uint64()'s outputs word for
// word, at every row length, for the seeds whose normalization math/rand
// special-cases (zero, negative, multiples of 2^31-1, the extremes) and
// for many random ones. The lengths straddle the tap (273) and the
// register length (607), where the terms switch from seeded register
// words to earlier outputs.
func TestRandomFillMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1,
		int32max, -int32max, 2 * int32max, // 2·(2^31-1) normalizes to 0, then to 89482311
		89482311, math.MinInt64, math.MaxInt64,
	}
	gen := rand.New(rand.NewSource(20171014))
	for i := 0; i < 1000; i++ {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	lengths := []int{0, 1, 16, 272, 273, 274, 606, 607, 608, 1300}
	tables := seedTables()
	want := make([]uint64, lengths[len(lengths)-1])
	got := make([]uint64, len(want))
	for _, s := range seeds {
		rng := rand.New(rand.NewSource(s))
		for k := range want {
			want[k] = rng.Uint64()
		}
		for _, n := range lengths {
			clear(got)
			tables.fill(got[:n], s)
			for k := 0; k < n; k++ {
				if got[k] != want[k] {
					t.Fatalf("seed %d, %d words: word %d = %#x, math/rand gives %#x", s, n, k, got[k], want[k])
				}
			}
		}
	}
}

// TestRandomPatternMatchesLegacyFill pins RandomPattern to the
// construction it replaced: a fresh math/rand source per row, seeded
// with seed ^ int64(row)*0x9E3779B9, drained by Row.Randomize.
func TestRandomPatternMatchesLegacyFill(t *testing.T) {
	rows := []int{0, 1, 2, 3, 7, 63, 64, 511, 1023, 4095}
	for _, cols := range []int{16 * 64, 300 * 64} {
		got, want := dram.NewRow(cols), dram.NewRow(cols)
		for s := int64(1); s <= 100; s++ {
			p := RandomPattern(s)
			for _, r := range rows {
				p.Fill(got, r)
				want.Randomize(rand.New(rand.NewSource(s ^ int64(r)*0x9E3779B9)))
				if !got.Equal(want) {
					t.Fatalf("%s, row %d, %d words: fill differs from the per-row math/rand source", p.Name, r, len(got))
				}
			}
		}
	}
}

// TestRandomFillAllocs pins the fill to zero allocations per row.
func TestRandomFillAllocs(t *testing.T) {
	p := RandomPattern(7)
	row := dram.NewRow(1024)
	r := 0
	if n := testing.AllocsPerRun(100, func() { p.Fill(row, r); r++ }); n != 0 {
		t.Errorf("RandomPattern Fill allocates %.1f times per row, want 0", n)
	}
}
