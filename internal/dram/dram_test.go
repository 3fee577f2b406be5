package dram

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestTimingMatchesPaperAppendix(t *testing.T) {
	tm := DDR31600()
	if got := tm.RowCycle(); got != 534 {
		t.Errorf("RowCycle = %d ns, want 534", got)
	}
	if got := tm.RefreshCost(); got != 39 {
		t.Errorf("RefreshCost = %d ns, want 39 (tRAS+tRP)", got)
	}
}

func TestTREFI(t *testing.T) {
	if got := TREFI(RefreshWindowDefault); got != 7812 { // 64 ms / 8192 = 7.8125 us
		t.Errorf("TREFI(64ms) = %d ns, want 7812", got)
	}
	if got := TREFI(RefreshWindowAggressive); got != 1953 {
		t.Errorf("TREFI(16ms) = %d ns, want 1953", got)
	}
}

func TestDensityTRFC(t *testing.T) {
	cases := []struct {
		d    Density
		want Nanoseconds
	}{
		{Density4Gb, 350},
		{Density8Gb, 530},
		{Density16Gb, 890},
		{Density32Gb, 1600},
	}
	for _, c := range cases {
		if got := c.d.TRFC(); got != c.want {
			t.Errorf("TRFC(%s) = %d, want %d", c.d, got, c.want)
		}
	}
	if Density8Gb.String() != "8Gb" {
		t.Errorf("String = %q", Density8Gb.String())
	}
}

func TestGeometryValidate(t *testing.T) {
	good := DefaultGeometry()
	if err := good.Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
	bad := []Geometry{
		{Ranks: 0, ChipsPerRank: 1, BanksPerChip: 1, RowsPerBank: 2, ColsPerRow: 64},
		{Ranks: 1, ChipsPerRank: 0, BanksPerChip: 1, RowsPerBank: 2, ColsPerRow: 64},
		{Ranks: 1, ChipsPerRank: 1, BanksPerChip: 0, RowsPerBank: 2, ColsPerRow: 64},
		{Ranks: 1, ChipsPerRank: 1, BanksPerChip: 1, RowsPerBank: 1, ColsPerRow: 64},
		{Ranks: 1, ChipsPerRank: 1, BanksPerChip: 1, RowsPerBank: 2, ColsPerRow: 4},
		{Ranks: 1, ChipsPerRank: 1, BanksPerChip: 1, RowsPerBank: 2, ColsPerRow: 100},
		{Ranks: 1, ChipsPerRank: 1, BanksPerChip: 1, RowsPerBank: 2, ColsPerRow: 64, RedundantCols: -1},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: invalid geometry accepted: %+v", i, g)
		}
	}
}

func TestRowIndexRoundTrip(t *testing.T) {
	g := Geometry{Ranks: 1, ChipsPerRank: 1, BanksPerChip: 4, RowsPerBank: 16, ColsPerRow: 64}
	for idx := 0; idx < g.TotalRows(); idx++ {
		a := g.AddressOfIndex(idx)
		if got := g.RowIndex(a); got != idx {
			t.Fatalf("round trip failed: idx %d -> %+v -> %d", idx, a, got)
		}
	}
}

func TestRowIndexPanicsOutOfRange(t *testing.T) {
	g := DefaultGeometry()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range address")
		}
	}()
	g.RowIndex(RowAddress{Bank: g.BanksPerChip, Row: 0})
}

func TestRowBitOps(t *testing.T) {
	r := NewRow(128)
	r.SetBit(0, 1)
	r.SetBit(63, 1)
	r.SetBit(64, 1)
	r.SetBit(127, 1)
	for _, c := range []int{0, 63, 64, 127} {
		if r.Bit(c) != 1 {
			t.Errorf("bit %d = 0, want 1", c)
		}
	}
	if r[0] != 1|1<<63 || r[1] != 1|1<<63 {
		t.Errorf("row = %#x, want bits 0, 63, 64 and 127 set", r)
	}
	r.SetBit(63, 0)
	if r.Bit(63) != 0 {
		t.Error("clearing bit 63 failed")
	}
	if r[0] != 1 || r[1] != 1|1<<63 {
		t.Errorf("row after clear = %#x, want bits 0, 64 and 127 set", r)
	}
}

func TestModuleRowAtAliasesRowRef(t *testing.T) {
	g := DefaultGeometry()
	g.RowsPerBank = 64
	m, err := NewModule(g)
	if err != nil {
		t.Fatal(err)
	}
	a := RowAddress{Bank: g.BanksPerChip - 1, Row: 13}
	content := NewRow(g.ColsPerRow)
	content.SetBit(7, 1)
	if err := m.WriteRow(a, content, 0); err != nil {
		t.Fatal(err)
	}
	byRef := m.RowRef(a)
	byIdx := m.RowAt(g.RowIndex(a))
	if &byRef[0] != &byIdx[0] {
		t.Error("RowAt and RowRef return different backing storage for the same row")
	}
	if byIdx.Bit(7) != 1 {
		t.Error("RowAt content does not reflect the write")
	}
}

func TestRowFillAndRandomize(t *testing.T) {
	r := NewRow(256)
	r.Fill(^uint64(0))
	for i, w := range r {
		if w != ^uint64(0) {
			t.Errorf("Fill(all ones) word %d = %#x", i, w)
		}
	}
	rng := rand.New(rand.NewSource(3))
	r.Randomize(rng)
	n := 0
	for _, w := range r {
		n += bits.OnesCount64(w)
	}
	if n == 0 || n == 256 {
		t.Errorf("randomized row suspicious ones count %d", n)
	}
}

// Property: SetBit then Bit always round-trips, and never disturbs other
// cells.
func TestRowSetBitProperty(t *testing.T) {
	f := func(cRaw uint16, v bool) bool {
		r := NewRow(512)
		r.Fill(0xAAAAAAAAAAAAAAAA)
		before := slices.Clone(r)
		c := int(cRaw) % 512
		val := 0
		if v {
			val = 1
		}
		r.SetBit(c, val)
		for i := 0; i < 512; i++ {
			want := before.Bit(i)
			if i == c {
				want = val
			}
			if r.Bit(i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestModuleWriteReadPeek(t *testing.T) {
	g := Geometry{Ranks: 1, ChipsPerRank: 1, BanksPerChip: 2, RowsPerBank: 8, ColsPerRow: 128}
	m, err := NewModule(g)
	if err != nil {
		t.Fatal(err)
	}
	content := NewRow(128)
	content.SetBit(17, 1)
	a := RowAddress{Bank: 1, Row: 3}
	if err := m.WriteRow(a, content, 100); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(m.RowRef(a), content) {
		t.Error("stored row does not match written content")
	}
	// The module stores a copy: mutating the caller's row afterwards
	// must not affect stored state.
	content.SetBit(0, 1)
	if m.RowRef(a).Bit(0) != 0 {
		t.Error("WriteRow aliased the caller's row")
	}
	if got := m.IdleTime(a, 150); got != 50 {
		t.Errorf("IdleTime 50 ns after the write = %d, want 50", got)
	}
}

func TestModuleErrors(t *testing.T) {
	m, err := NewModule(DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	bad := RowAddress{Bank: -1, Row: 0}
	if err := m.WriteRow(bad, NewRow(m.Geometry().ColsPerRow), 0); err == nil {
		t.Error("write to invalid address should error")
	}
	short := NewRow(64)
	if err := m.WriteRow(RowAddress{}, short, 0); err == nil {
		t.Error("short content should error")
	}
	if _, err := NewModule(Geometry{}); err == nil {
		t.Error("invalid geometry should error")
	}
}

// TestWriteImageMatchesWriteRowLoop holds WriteImage to the WriteRow
// loop it replaces: row idx gets image[idx%len(image)] at now, for
// images of exactly, fewer (wrapping) and more rows than the module,
// and a bad row the module uses fails with WriteRow's error text.
func TestWriteImageMatchesWriteRowLoop(t *testing.T) {
	g := Geometry{Ranks: 1, ChipsPerRank: 1, BanksPerChip: 3, RowsPerBank: 5, ColsPerRow: 128}
	total := g.TotalRows()
	image := func(n int, bad ...int) []Row {
		rng := rand.New(rand.NewSource(int64(n)))
		img := make([]Row, n)
		for i := range img {
			img[i] = NewRow(g.ColsPerRow)
			img[i].Randomize(rng)
		}
		for _, i := range bad {
			img[i] = img[i][:1]
		}
		return img
	}
	for _, tc := range []struct {
		name  string
		image []Row
	}{
		{"exact", image(total)},
		{"wraps", image(4)},
		{"one row", image(1)},
		{"longer", image(total + 7)},
		{"bad row past the module", image(total+2, total+1)},
		{"bad row", image(4, 2)},
		{"bad row wrapped into", image(total-1, total-2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, _ := NewModule(g)
			var wantErr error
			for idx := 0; idx < total && wantErr == nil; idx++ {
				wantErr = want.WriteRow(g.AddressOfIndex(idx), tc.image[idx%len(tc.image)], 100)
			}
			got, _ := NewModule(g)
			got.RechargeAll(40)
			err := got.WriteImage(tc.image, 100)
			if wantErr != nil {
				if err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("WriteImage error = %v, want %v", err, wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for idx := 0; idx < total; idx++ {
				a := g.AddressOfIndex(idx)
				if !slices.Equal(got.RowRef(a), want.RowRef(a)) {
					t.Errorf("row %d: content %x, WriteRow loop gives %x", idx, got.RowRef(a), want.RowRef(a))
				}
				if gi, wi := got.IdleTime(a, 150), want.IdleTime(a, 150); gi != wi {
					t.Errorf("row %d: IdleTime %d, WriteRow loop gives %d", idx, gi, wi)
				}
			}
		})
	}
	m, _ := NewModule(g)
	if err := m.WriteImage(nil, 0); err == nil {
		t.Error("WriteImage of an empty image should error")
	}
}

// TestModuleRowsAreSeparate checks the slab-backed rows: each row's
// capacity ends at its own last word, and writing one row changes no
// other.
func TestModuleRowsAreSeparate(t *testing.T) {
	g := Geometry{Ranks: 1, ChipsPerRank: 1, BanksPerChip: 2, RowsPerBank: 4, ColsPerRow: 128}
	m, err := NewModule(g)
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < g.TotalRows(); idx++ {
		if r := m.RowAt(idx); len(r) != 2 || cap(r) != 2 {
			t.Fatalf("row %d: len %d, cap %d; want both 2", idx, len(r), cap(r))
		}
	}
	ones := NewRow(g.ColsPerRow)
	ones.Fill(^uint64(0))
	for idx := 0; idx < g.TotalRows(); idx++ {
		m, _ := NewModule(g)
		if err := m.WriteRow(g.AddressOfIndex(idx), ones, 0); err != nil {
			t.Fatal(err)
		}
		for other := 0; other < g.TotalRows(); other++ {
			want := uint64(0)
			if other == idx {
				want = ^uint64(0)
			}
			for _, w := range m.RowAt(other) {
				if w != want {
					t.Fatalf("after writing row %d, row %d holds %x", idx, other, m.RowAt(other))
				}
			}
		}
	}
}

func TestModuleChargeBookkeeping(t *testing.T) {
	m, _ := NewModule(DefaultGeometry())
	a := RowAddress{Bank: 0, Row: 10}
	m.Activate(a, 5*Millisecond)
	if got := m.IdleTime(a, 7*Millisecond); got != 2*Millisecond {
		t.Errorf("IdleTime = %d, want 2ms", got)
	}
	if got := m.IdleTime(a, 1*Millisecond); got != 0 {
		t.Errorf("IdleTime before charge = %d, want clamped 0", got)
	}
	m.Activate(a, 9*Millisecond)
	if got := m.IdleTime(a, 10*Millisecond); got != Millisecond {
		t.Errorf("Activate did not recharge: IdleTime = %d, want 1ms", got)
	}
}

func TestModuleApplyFlips(t *testing.T) {
	m, _ := NewModule(DefaultGeometry())
	a := RowAddress{Bank: 2, Row: 2}
	content := NewRow(m.Geometry().ColsPerRow)
	content.SetBit(8, 1)
	if err := m.WriteRow(a, content, 0); err != nil {
		t.Fatal(err)
	}
	m.ApplyFlips(a, []int{8, 9})
	got := m.RowRef(a)
	if got.Bit(8) != 0 || got.Bit(9) != 1 {
		t.Errorf("flips not applied: bit8=%d bit9=%d", got.Bit(8), got.Bit(9))
	}
}

func TestScramblerRowPermutation(t *testing.T) {
	g := DefaultGeometry()
	s := NewScrambler(g, 12345, nil)
	for bank := 0; bank < 2; bank++ {
		seen := make(map[int]bool, g.RowsPerBank)
		for r := 0; r < g.RowsPerBank; r++ {
			p := s.PhysRow(bank, r)
			if p < 0 || p >= g.RowsPerBank {
				t.Fatalf("PhysRow(%d,%d) = %d out of range", bank, r, p)
			}
			if seen[p] {
				t.Fatalf("PhysRow not a bijection: %d hit twice (bank %d)", p, bank)
			}
			seen[p] = true
		}
	}
}

func TestScramblerRowPermutationNonPowerOfTwo(t *testing.T) {
	g := DefaultGeometry()
	g.RowsPerBank = 3000 // not a power of two: exercises cycle walking
	s := NewScrambler(g, 99, nil)
	seen := make(map[int]bool, g.RowsPerBank)
	for r := 0; r < g.RowsPerBank; r++ {
		p := s.PhysRow(0, r)
		if p < 0 || p >= g.RowsPerBank {
			t.Fatalf("PhysRow out of range: %d", p)
		}
		if seen[p] {
			t.Fatalf("collision at %d", p)
		}
		seen[p] = true
	}
}

func TestScramblerActuallyScrambles(t *testing.T) {
	g := DefaultGeometry()
	s := NewScrambler(g, 777, nil)
	identical := 0
	adjacentStaysAdjacent := 0
	for r := 0; r+1 < 512; r++ {
		if s.PhysRow(0, r) == r {
			identical++
		}
		d := s.PhysRow(0, r+1) - s.PhysRow(0, r)
		if d == 1 || d == -1 {
			adjacentStaysAdjacent++
		}
	}
	if identical > 50 {
		t.Errorf("scrambler looks like identity: %d fixed points in 512", identical)
	}
	if adjacentStaysAdjacent > 100 {
		t.Errorf("scrambler preserves adjacency too often: %d of 511", adjacentStaysAdjacent)
	}
}

func TestScramblerDiffersAcrossChips(t *testing.T) {
	g := DefaultGeometry()
	a := NewScrambler(g, 1, nil)
	b := NewScrambler(g, 2, nil)
	same := 0
	for r := 0; r < 256; r++ {
		if a.PhysRow(0, r) == b.PhysRow(0, r) {
			same++
		}
	}
	if same > 32 {
		t.Errorf("two chips share %d/256 row mappings; vendors scramble per generation", same)
	}
}

func TestScramblerColumnBijection(t *testing.T) {
	g := DefaultGeometry()
	s := NewScrambler(g, 5, nil)
	seen := make(map[int]bool)
	for c := 0; c < g.ColsPerRow; c++ {
		p := s.PhysCol(c)
		if p < 0 || p >= g.PhysCols() {
			t.Fatalf("PhysCol(%d) = %d out of range", c, p)
		}
		if seen[p] {
			t.Fatalf("column collision at %d", p)
		}
		seen[p] = true
	}
}

func TestScramblerColumnRemapping(t *testing.T) {
	g := DefaultGeometry()
	noRemap := NewScrambler(g, 5, nil)
	// Pick some physical columns that are in use and declare them faulty.
	faulty := []int{noRemap.PhysCol(10), noRemap.PhysCol(20), noRemap.PhysCol(30)}
	s := NewScrambler(g, 5, faulty)
	for c := 0; c < g.ColsPerRow; c++ {
		p := s.PhysCol(c)
		for _, f := range faulty {
			if p == f {
				t.Errorf("system col %d still maps to faulty physical col %d", c, f)
			}
		}
		if c == 10 || c == 20 || c == 30 {
			if p < g.ColsPerRow {
				t.Errorf("remapped col %d maps to %d, want redundant region >= %d", c, p, g.ColsPerRow)
			}
		} else if p != noRemap.PhysCol(c) {
			t.Errorf("healthy col %d moved from %d to %d", c, noRemap.PhysCol(c), p)
		}
	}
}
