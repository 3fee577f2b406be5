package lfg

import (
	"math/rand"
	"sync"
)

// Building a math/rand source seeds all 607 words of its register
// (1 841 modular multiplies and a 5.4 KB allocation) however few words
// are drawn, so Fill computes the first words directly instead, bit
// for bit.
//
// math/rand's source is an additive lagged-Fibonacci generator: its
// outputs satisfy out[k] = out[k-607] + out[k-273] (mod 2^64), where
// the 607 terms before out[0] are the seeded register words, term
// out[j] = reg[(333-j) mod 607] for j = -607..-1. Seeding runs the
// Lehmer generator x ← A·x mod (2^31-1), A = 48271, from the
// normalized seed x0, skips 20 draws, and packs three draws into each
// register word, XORed with a fixed table rngCooked:
//
//	reg[i] = (x0·A^(3i+21) << 40) ^ (x0·A^(3i+22) << 20) ^ x0·A^(3i+23) ^ rngCooked[i]
//
// with each product reduced mod 2^31-1. A row of n ≤ 273 words reads
// 2n register words, each three multiplies. TestRandomFillMatchesMathRand
// is the oracle.

const (
	rngLen   = 607       // math/rand's register length
	rngTap   = 273       // its tap distance
	int32max = 1<<31 - 1 // the modulus of its seeding generator
	seedMul  = 48271     // that generator's multiplier
)

// rngTables holds the seeded terms out[-607..-1] by position
// m = j+607: pow[m] are the three powers of A that term's register
// word i takes, A^(3i+21..3i+23) mod 2^31-1, and cooked[m] is
// rngCooked[i].
type rngTables struct {
	pow    [rngLen][3]uint64
	cooked [rngLen]uint64
}

// seedTables builds the tables once per process. rngCooked is not
// exported, so it is recovered from math/rand itself: seed 1's first
// 607 outputs determine the terms before them (each step of the
// recurrence is undone, newest first), and XORing seed 1's Lehmer
// draws off those terms leaves the table.
var seedTables = sync.OnceValue(func() *rngTables {
	t := new(rngTables)
	var pow [rngLen][3]uint64 // by register word
	p := uint64(1)
	for j := 1; j <= 20+3*rngLen; j++ {
		p = p * seedMul % int32max
		if j > 20 {
			pow[(j-21)/3][(j-21)%3] = p
		}
	}
	// seq[m] is out[m-607]: the seeded terms, then the outputs.
	var seq [2 * rngLen]uint64
	src := rand.NewSource(1).(rand.Source64)
	for m := rngLen; m < len(seq); m++ {
		seq[m] = src.Uint64()
	}
	for m := rngLen - 1; m >= 0; m-- {
		seq[m] = seq[m+rngLen] - seq[m+rngLen-rngTap]
	}
	for m := range t.pow {
		t.pow[m] = pow[(2*rngLen-rngTap-1-m)%rngLen]
		t.cooked[m] = seq[m] ^ t.draws(1, m)
	}
	return t
})

// draws packs the three Lehmer draws of seeded term m for the
// normalized seed x0, before rngCooked is XORed on.
func (t *rngTables) draws(x0 uint64, m int) uint64 {
	p := &t.pow[m]
	return x0*p[0]%int32max<<40 ^ x0*p[1]%int32max<<20 ^ x0*p[2]%int32max
}

// fill writes the first len(dst) outputs of
// rand.New(rand.NewSource(seed)).Uint64() into dst.
func (t *rngTables) fill(dst []uint64, seed int64) {
	x0 := seed % int32max
	if x0 < 0 {
		x0 += int32max
	}
	if x0 == 0 {
		x0 = 89482311
	}
	// term is out[j]: an output already in dst once j ≥ 0, before that
	// a seeded register word.
	term := func(j int) uint64 {
		if j >= 0 {
			return dst[j]
		}
		m := j + rngLen
		return t.draws(uint64(x0), m) ^ t.cooked[m]
	}
	for k := range dst {
		dst[k] = term(k-rngLen) + term(k-rngTap)
	}
}
