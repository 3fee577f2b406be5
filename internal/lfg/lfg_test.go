package lfg

import (
	"math"
	"math/rand"
	"testing"
)

// oracleSeeds returns the seeds the oracles check: the ones whose
// normalization math/rand special-cases (zero, negative, multiples of
// 2^31-1, the extremes) and many random ones.
func oracleSeeds() []int64 {
	seeds := []int64{
		0, 1, -1,
		int32max, -int32max, 2 * int32max, // 2·(2^31-1) normalizes to 0, then to 89482311
		89482311, math.MinInt64, math.MaxInt64,
	}
	gen := rand.New(rand.NewSource(20171014))
	for i := 0; i < 1000; i++ {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	return seeds
}

// TestRandomFillMatchesMathRand is the oracle for the direct fill: it
// must produce rand.New(rand.NewSource(s)).Uint64()'s outputs word for
// word, at every row length, for every oracle seed. The lengths
// straddle the tap (273) and the register length (607), where the
// terms switch from seeded register words to earlier outputs.
func TestRandomFillMatchesMathRand(t *testing.T) {
	lengths := []int{0, 1, 16, 272, 273, 274, 606, 607, 608, 1300}
	tables := seedTables()
	want := make([]uint64, lengths[len(lengths)-1])
	got := make([]uint64, len(want))
	for _, s := range oracleSeeds() {
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

// draw makes one call on the stream and on math/rand's generator,
// selected by op (Uint64, Int63 or Float64), and reports both results
// as bits.
func draw(s *Stream, rng *rand.Rand, op byte) (got, want uint64, name string) {
	switch op % 3 {
	case 0:
		return s.Uint64(), rng.Uint64(), "Uint64"
	case 1:
		return uint64(s.Int63()), uint64(rng.Int63()), "Int63"
	default:
		return math.Float64bits(s.Float64()), math.Float64bits(rng.Float64()), "Float64"
	}
}

// TestStreamMatchesMathRand is the oracle for Stream: for every oracle
// seed, 2,500 calls in a fixed interleaving of Uint64, Int63 and
// Float64 (four refills of the 607-word block) return exactly what a
// *rand.Rand making the same calls returns.
func TestStreamMatchesMathRand(t *testing.T) {
	ops := []byte{0, 1, 2, 0, 0, 2, 1, 1, 2, 2, 0}
	var s Stream
	for _, seed := range oracleSeeds() {
		s.Seed(seed)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 2500; i++ {
			if got, want, name := draw(&s, rng, ops[i%len(ops)]); got != want {
				t.Fatalf("seed %d, call %d (%s) = %#x, math/rand gives %#x", seed, i, name, got, want)
			}
		}
	}
}

// FuzzStreamMatchesMathRand holds Stream to math/rand at any seed and
// any interleaving of calls: each op byte selects the method (op%3) and
// how many calls in a row make it (op/3+1, up to 86), so a few bytes
// reach past a refill.
func FuzzStreamMatchesMathRand(f *testing.F) {
	f.Add(int64(42), []byte{0, 1, 2})
	f.Add(int64(0), []byte{255, 255, 255, 255, 255, 255, 255, 255})
	f.Add(int64(-1), []byte{254, 253, 3, 4, 5, 250, 251, 252})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		var s Stream
		s.Seed(seed)
		rng := rand.New(rand.NewSource(seed))
		call := 0
		for _, op := range ops {
			for range int(op/3) + 1 {
				if got, want, name := draw(&s, rng, op); got != want {
					t.Fatalf("seed %d, call %d (%s) = %#x, math/rand gives %#x", seed, call, name, got, want)
				}
				call++
			}
		}
	})
}

// TestStreamAllocs pins seeding and drawing to no allocation.
func TestStreamAllocs(t *testing.T) {
	var s Stream
	seed := int64(0)
	if n := testing.AllocsPerRun(20, func() {
		s.Seed(seed)
		seed++
		for range 1000 {
			s.Float64()
		}
	}); n != 0 {
		t.Errorf("seeding a Stream and drawing 1000 values allocates %.1f times, want 0", n)
	}
}
