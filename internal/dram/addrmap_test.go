package dram

import (
	"strings"
	"testing"
)

// mapGeometries covers the shapes that stress an address mapping:
// power-of-two everything (the bit-permutation fast paths), a
// non-power-of-two row count (cycle-walking must stay in range), and a
// non-power-of-two column count (the affine column swizzles).
func mapGeometries() []Geometry {
	return []Geometry{
		{Ranks: 1, ChipsPerRank: 1, BanksPerChip: 2, RowsPerBank: 256, ColsPerRow: 128, RedundantCols: 8},
		{Ranks: 1, ChipsPerRank: 1, BanksPerChip: 3, RowsPerBank: 200, ColsPerRow: 128, RedundantCols: 8},
		{Ranks: 1, ChipsPerRank: 1, BanksPerChip: 2, RowsPerBank: 128, ColsPerRow: 96, RedundantCols: 4},
	}
}

// TestMappingRegistry pins the registry surface: names are sorted and
// stable, "" and "default" are both known, and unknown names error
// mentioning the registry.
func TestMappingRegistry(t *testing.T) {
	names := MappingNames()
	want := []string{"default", "gray", "linear", "mirror"}
	if len(names) != len(want) {
		t.Fatalf("MappingNames() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("MappingNames() = %v, want %v", names, want)
		}
	}
	if !KnownMapping("") || !KnownMapping(DefaultMappingName) {
		t.Error("empty and default mapping names must be known")
	}
	if KnownMapping("zigzag") {
		t.Error("unknown mapping reported as known")
	}
	if _, err := NewMapping("zigzag", DefaultGeometry(), 1); err == nil ||
		!strings.Contains(err.Error(), "gray") {
		t.Errorf("NewMapping(zigzag) = %v, want error naming the registry", err)
	}
}

// TestMappingBijections proves the property every mapping must have for
// the simulation to be meaningful: PhysRow is a permutation of each
// bank's rows and BaseCol is a permutation of the column space — every
// system address lands on exactly one physical cell.
func TestMappingBijections(t *testing.T) {
	for _, name := range MappingNames() {
		for gi, geom := range mapGeometries() {
			for _, seed := range []uint64{1, 42, 1 << 60} {
				m, err := NewMapping(name, geom, seed)
				if err != nil {
					t.Fatal(err)
				}
				for b := 0; b < geom.BanksPerChip; b++ {
					seen := make([]bool, geom.RowsPerBank)
					for r := 0; r < geom.RowsPerBank; r++ {
						p := m.PhysRow(b, r)
						if p < 0 || p >= geom.RowsPerBank {
							t.Fatalf("%s geom %d seed %d: PhysRow(%d,%d) = %d out of range", name, gi, seed, b, r, p)
						}
						if seen[p] {
							t.Fatalf("%s geom %d seed %d bank %d: PhysRow not injective at %d", name, gi, seed, b, p)
						}
						seen[p] = true
					}
				}
				cols := geom.ColsPerRow
				seen := make([]bool, cols)
				for c := 0; c < cols; c++ {
					p := m.BaseCol(c)
					if p < 0 || p >= cols {
						t.Fatalf("%s geom %d seed %d: BaseCol(%d) = %d out of range", name, gi, seed, c, p)
					}
					if seen[p] {
						t.Fatalf("%s geom %d seed %d: BaseCol not injective at %d", name, gi, seed, p)
					}
					seen[p] = true
				}
			}
		}
	}
}

// TestDefaultMappingMatchesLegacyScrambler pins backward compatibility:
// a scrambler built through the mapping registry with "" or "default"
// produces exactly the same physical layout as the pre-registry
// NewScrambler, so every golden output keyed on the default stays
// byte-identical.
func TestDefaultMappingMatchesLegacyScrambler(t *testing.T) {
	for _, geom := range mapGeometries() {
		legacy := NewScrambler(geom, 42, []int{3, 7})
		for _, name := range []string{"", DefaultMappingName} {
			scr, err := NewMappedScrambler(geom, 42, []int{3, 7}, name)
			if err != nil {
				t.Fatal(err)
			}
			for b := 0; b < geom.BanksPerChip; b++ {
				for r := 0; r < geom.RowsPerBank; r++ {
					if legacy.PhysRow(b, r) != scr.PhysRow(b, r) {
						t.Fatalf("mapping %q: PhysRow(%d,%d) diverged from legacy", name, b, r)
					}
				}
			}
			for c := 0; c < geom.ColsPerRow; c++ {
				if legacy.PhysCol(c) != scr.PhysCol(c) {
					t.Fatalf("mapping %q: PhysCol(%d) diverged from legacy", name, c)
				}
			}
		}
	}
}

// TestLinearMappingIsIdentity pins the one mapping with a specified
// layout: linear is the no-scrambling vendor, the layout naive
// system-level testing assumes.
func TestLinearMappingIsIdentity(t *testing.T) {
	geom := mapGeometries()[0]
	m, err := NewMapping("linear", geom, 99)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < geom.BanksPerChip; b++ {
		for r := 0; r < geom.RowsPerBank; r++ {
			if m.PhysRow(b, r) != r {
				t.Fatalf("linear PhysRow(%d,%d) = %d", b, r, m.PhysRow(b, r))
			}
		}
	}
	for c := 0; c < geom.ColsPerRow; c++ {
		if m.BaseCol(c) != c {
			t.Fatalf("linear BaseCol(%d) = %d", c, m.BaseCol(c))
		}
	}
}

// TestMappingsDiffer is the sanity check that the vendor mappings are
// actually different layouts, not renames of each other: for a
// power-of-two geometry, each pair must disagree on at least one row.
func TestMappingsDiffer(t *testing.T) {
	geom := mapGeometries()[0]
	names := MappingNames()
	for i, a := range names {
		ma, err := NewMapping(a, geom, 42)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range names[i+1:] {
			mb, err := NewMapping(b, geom, 42)
			if err != nil {
				t.Fatal(err)
			}
			same := true
			for r := 0; r < geom.RowsPerBank && same; r++ {
				if ma.PhysRow(0, r) != mb.PhysRow(0, r) {
					same = false
				}
			}
			if same {
				t.Errorf("mappings %q and %q agree on every row of bank 0", a, b)
			}
		}
	}
}
