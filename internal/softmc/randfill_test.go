package softmc

import (
	"math/rand"
	"slices"
	"testing"

	"memcon/internal/dram"
)

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
				if !slices.Equal(got, want) {
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
