// Package lfg computes math/rand's seeded stream, the additive
// lagged-Fibonacci generator behind rand.New(rand.NewSource(seed)),
// without building a rand.Source: Fill writes a stream's first words
// straight from the seed, and Stream draws it call for call as a value,
// with no interface call per draw and no allocation. The outputs are
// math/rand's bit for bit, so content defined by a math/rand seed keeps
// its bytes (randfill.go holds the derivation).
package lfg

// Fill writes the first len(dst) outputs of
// rand.New(rand.NewSource(seed)).Uint64() into dst.
func Fill(dst []uint64, seed int64) { seedTables().fill(dst, seed) }

// Stream returns what rand.New(rand.NewSource(seed)) returns from
// Uint64, Int63 and Float64, call for call. It holds one block of 607
// outputs: Seed fills the first with Fill, and each later block
// follows from the one before by the generator's recurrence,
// out[k] = out[k-607] + out[k-273], updated in place. A Stream is a
// value (4.9 KB) and must be seeded before use.
type Stream struct {
	vec [rngLen]uint64 // the current block of outputs
	n   int            // how many of vec have been drawn
}

// Seed starts the stream of seed.
func (s *Stream) Seed(seed int64) {
	Fill(s.vec[:], seed)
	s.n = 0
}

// Uint64 returns the next output, as rand.Rand.Uint64 does.
func (s *Stream) Uint64() uint64 {
	if s.n == rngLen {
		s.refill()
	}
	x := s.vec[s.n]
	s.n++
	return x
}

// Int63 returns the next output without its top bit, as
// rand.Rand.Int63 does.
func (s *Stream) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Float64 returns Int63/2^63, drawing again while that rounds to 1, as
// rand.Rand.Float64 does.
func (s *Stream) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// refill replaces the drawn block by the next one. Output 607+i is
// output i plus output 334+i: for i < 273 that term is still in the
// old block, and from i = 273 on it is new output i-273, already
// written.
func (s *Stream) refill() {
	v := &s.vec
	for i := 0; i < rngTap; i++ {
		v[i] += v[i+rngLen-rngTap]
	}
	for i := rngTap; i < rngLen; i++ {
		v[i] += v[i-rngTap]
	}
	s.n = 0
}
