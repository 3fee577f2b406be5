package softmc

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"memcon/internal/dram"
	"memcon/internal/faults"
	"memcon/internal/obs"
)

func testGeometry() dram.Geometry {
	return dram.Geometry{
		Ranks:         1,
		ChipsPerRank:  1,
		BanksPerChip:  2,
		RowsPerBank:   512,
		ColsPerRow:    512,
		RedundantCols: 16,
	}
}

func newTester(t *testing.T, seed uint64, weakFraction float64) *Tester {
	t.Helper()
	geom := testGeometry()
	scr := dram.NewScrambler(geom, seed, nil)
	params := faults.DefaultParams()
	if weakFraction > 0 {
		params.WeakCellFraction = weakFraction
	}
	model, err := faults.NewModel(geom, scr, seed, params)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := dram.NewModule(geom)
	if err != nil {
		t.Fatal(err)
	}
	tester, err := NewTester(mod, model)
	if err != nil {
		t.Fatal(err)
	}
	return tester
}

func TestNewTesterGeometryMismatch(t *testing.T) {
	geomA := testGeometry()
	geomB := testGeometry()
	geomB.RowsPerBank *= 2
	scr := dram.NewScrambler(geomA, 1, nil)
	model, err := faults.NewModel(geomA, scr, 1, faults.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	mod, err := dram.NewModule(geomB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTester(mod, model); err == nil {
		t.Error("geometry mismatch accepted")
	}
}

func TestPatternNamesAndFill(t *testing.T) {
	row := dram.NewRow(128)
	cases := []struct {
		p        Pattern
		row      int
		wantOnes int
	}{
		{SolidPattern(0), 0, 0},
		{SolidPattern(1), 0, 128},
		{CheckerboardPattern(0), 0, 64},
		{CheckerboardPattern(0), 1, 64},
		{RowStripePattern(0), 0, 0},
		{RowStripePattern(0), 1, 128},
		{ColStripePattern(0), 0, 64},
		{WalkingPattern(1, 3), 0, 2}, // one bit per 64-bit word
		{WalkingPattern(0, 3), 0, 126},
	}
	for _, c := range cases {
		c.p.Fill(row, c.row)
		if got := bits.OnesCount64(row[0]) + bits.OnesCount64(row[1]); got != c.wantOnes {
			t.Errorf("%s row %d ones = %d, want %d", c.p.Name, c.row, got, c.wantOnes)
		}
		if c.p.Name == "" {
			t.Error("pattern with empty name")
		}
	}
}

func TestRandomPatternDeterministic(t *testing.T) {
	p := RandomPattern(9)
	a := dram.NewRow(256)
	b := dram.NewRow(256)
	p.Fill(a, 7)
	p.Fill(b, 7)
	if !slices.Equal(a, b) {
		t.Error("random pattern not deterministic per (seed,row)")
	}
	p.Fill(b, 8)
	if slices.Equal(a, b) {
		t.Error("random pattern identical across rows")
	}
}

func TestStandardPatterns(t *testing.T) {
	ps := StandardPatterns(100)
	if len(ps) != 100 {
		t.Fatalf("got %d patterns, want 100", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		if names[p.Name] {
			t.Errorf("duplicate pattern name %q", p.Name)
		}
		names[p.Name] = true
	}
	if len(StandardPatterns(4)) != 4 {
		t.Error("truncation to small n failed")
	}
}

func TestIdleAdvancesClock(t *testing.T) {
	tester := newTester(t, 1, 0)
	tester.Idle(5 * dram.Millisecond)
	if tester.Now() != 5*dram.Millisecond {
		t.Errorf("Now = %d", tester.Now())
	}
	tester.Idle(-1) // negative idle is ignored
	if tester.Now() != 5*dram.Millisecond {
		t.Errorf("negative idle changed clock: %d", tester.Now())
	}
}

func TestRunPatternFindsFailures(t *testing.T) {
	tester := newTester(t, 3, 5e-3)
	fails, err := tester.RunPattern(RowStripePattern(0), 2*faults.CharacterizationIdle)
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) == 0 {
		t.Fatal("aggressive stripe pattern at 2x idle found no failures; calibration broken")
	}
	for _, f := range fails {
		if len(f.Cells) == 0 {
			t.Error("failure record without failing cells")
		}
	}
}

func TestReadBackCommitsFlipsAndRecharges(t *testing.T) {
	tester := newTester(t, 5, 1e-2)
	fails, err := tester.RunPattern(CheckerboardPattern(0), 2*faults.CharacterizationIdle)
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) == 0 {
		t.Skip("no failures with this seed; cannot exercise commit path")
	}
	// Immediately reading back again must observe no failures: all rows
	// were recharged and the flips are now the stored content.
	again := tester.ReadBack()
	if len(again) != 0 {
		t.Errorf("second immediate read-back found %d failing rows, want 0", len(again))
	}
}

func TestDifferentPatternsDifferentFailures(t *testing.T) {
	// Fig. 3: failing cell sets differ across data patterns.
	seed := uint64(7)
	idle := 2 * faults.CharacterizationIdle

	observe := func(p Pattern) map[string]bool {
		tester := newTester(t, seed, 5e-3)
		fails, err := tester.RunPattern(p, idle)
		if err != nil {
			t.Fatal(err)
		}
		set := map[string]bool{}
		for _, f := range fails {
			for _, c := range f.Cells {
				set[keyOf(f.Addr, c)] = true
			}
		}
		return set
	}
	a := observe(SolidPattern(0))
	b := observe(SolidPattern(1))
	onlyA, onlyB := 0, 0
	for k := range a {
		if !b[k] {
			onlyA++
		}
	}
	for k := range b {
		if !a[k] {
			onlyB++
		}
	}
	if onlyA+onlyB == 0 && len(a)+len(b) > 0 {
		t.Error("solid-0 and solid-1 produce identical failing sets; failures are not data-dependent")
	}
	if len(a)+len(b) == 0 {
		t.Skip("no failures with either pattern for this seed")
	}
}

func keyOf(a dram.RowAddress, cell int) string {
	return string(rune(a.Bank)) + ":" + string(rune(a.Row)) + ":" + string(rune(cell))
}

func TestRunContentAndFailingRowFraction(t *testing.T) {
	tester := newTester(t, 11, 0)
	geom := testGeometry()
	rng := rand.New(rand.NewSource(8))
	image := make([]dram.Row, 64)
	for i := range image {
		image[i] = dram.NewRow(geom.ColsPerRow)
		image[i].Randomize(rng)
	}
	frac, err := tester.FailingRowFraction(image, faults.CharacterizationIdle)
	if err != nil {
		t.Fatal(err)
	}
	if frac < 0 || frac > 1 {
		t.Errorf("fraction %v outside [0,1]", frac)
	}
	all := tester.AllFailFraction(faults.CharacterizationIdle)
	if frac > all {
		t.Errorf("content failures (%v) exceed all-pattern failures (%v)", frac, all)
	}
	if all <= 0 {
		t.Error("AllFailFraction is zero; default calibration should make some rows vulnerable")
	}
}

func TestFillContentErrors(t *testing.T) {
	tester := newTester(t, 1, 0)
	if err := tester.FillContent(nil); err == nil {
		t.Error("empty image accepted")
	}
	// Wrong-size rows must propagate the module's error.
	if err := tester.FillContent([]dram.Row{dram.NewRow(64)}); err == nil {
		t.Error("wrong-size image row accepted")
	}
}

func TestWalkingPatternOffsetNormalization(t *testing.T) {
	// The shift and the name must agree on the normalized offset for
	// negative and >= 64 inputs (the old code shifted by uint(offset)%64
	// but named the pattern with the signed remainder).
	cases := []struct {
		offset  int
		wantBit int
	}{
		{0, 0},
		{3, 3},
		{63, 63},
		{64, 0},
		{72, 8},
		{-1, 63},
		{-8, 56},
		{-64, 0},
		{-65, 63},
	}
	for _, c := range cases {
		p := WalkingPattern(1, c.offset)
		wantName := fmt.Sprintf("walk1-%d", c.wantBit)
		if p.Name != wantName {
			t.Errorf("WalkingPattern(1, %d).Name = %q, want %q", c.offset, p.Name, wantName)
		}
		row := dram.NewRow(64)
		p.Fill(row, 0)
		if row[0] != 1<<c.wantBit {
			t.Errorf("WalkingPattern(1, %d) set bits %v, want only bit %d", c.offset, row, c.wantBit)
		}
		p0 := WalkingPattern(0, c.offset)
		wantName0 := fmt.Sprintf("walk0-%d", c.wantBit)
		if p0.Name != wantName0 {
			t.Errorf("WalkingPattern(0, %d).Name = %q, want %q", c.offset, p0.Name, wantName0)
		}
		p0.Fill(row, 0)
		if row[0] != ^(uint64(1) << c.wantBit) {
			t.Errorf("WalkingPattern(0, %d) cleared wrong bit, want only bit %d clear", c.offset, c.wantBit)
		}
	}
}

func TestAllFailFractionParallelCancelled(t *testing.T) {
	tester := newTester(t, 17, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	frac, err := tester.AllFailFractionParallel(ctx, faults.CharacterizationIdle, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled scan returned err = %v, want context.Canceled", err)
	}
	if frac != 0 {
		t.Errorf("cancelled scan returned fraction %v alongside the error", frac)
	}
	// The same tester must still produce the real answer afterwards.
	good, err := tester.AllFailFractionParallel(context.Background(), faults.CharacterizationIdle, 4)
	if err != nil {
		t.Fatal(err)
	}
	if good <= 0 {
		t.Error("AllFailFraction is zero; default calibration should make some rows vulnerable")
	}
}

func TestReadBackParallelCancelled(t *testing.T) {
	tester := newTester(t, 17, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tester.ReadBackParallel(ctx, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled read-back returned err = %v, want context.Canceled", err)
	}
}

// sequentialReadBack is the seed implementation of ReadBack — a strict
// commit-as-you-go scan — kept as the oracle for the parallel path.
func sequentialReadBack(t *Tester) []RowFailure {
	g := t.mod.Geometry()
	var fails []RowFailure
	for b := 0; b < g.BanksPerChip; b++ {
		for r := 0; r < g.RowsPerBank; r++ {
			a := dram.RowAddress{Bank: b, Row: r}
			idle := t.mod.IdleTime(a, t.now)
			cells := t.model.FailingCells(t.mod, a, idle)
			if len(cells) > 0 {
				t.mod.ApplyFlips(a, cells)
				fails = append(fails, RowFailure{Addr: a, Cells: cells})
			}
			t.mod.Activate(a, t.now)
		}
	}
	return fails
}

func moduleSnapshot(t *testing.T, mod *dram.Module) []dram.Row {
	t.Helper()
	g := mod.Geometry()
	rows := make([]dram.Row, g.TotalRows())
	for b := 0; b < g.BanksPerChip; b++ {
		for r := 0; r < g.RowsPerBank; r++ {
			a := dram.RowAddress{Bank: b, Row: r}
			rows[g.RowIndex(a)] = slices.Clone(mod.RowRef(a))
		}
	}
	return rows
}

func equalFailures(a, b []RowFailure) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Addr != b[i].Addr || len(a[i].Cells) != len(b[i].Cells) {
			return false
		}
		for j := range a[i].Cells {
			if a[i].Cells[j] != b[i].Cells[j] {
				return false
			}
		}
	}
	return true
}

// TestReadBackParallelMatchesSequential is the differential test for the
// sharded read-back: at every worker count the failure list AND the
// post-scan module content must be byte-identical to the seed's strictly
// sequential commit-as-you-go scan. The weak-cell population is dense
// enough that physically adjacent weak cells occur, exercising the
// dirty-row re-evaluation in the commit pass.
func TestReadBackParallelMatchesSequential(t *testing.T) {
	const weakFraction = 2e-2
	idle := 2 * faults.CharacterizationIdle
	prep := func(seed uint64, p Pattern) *Tester {
		tester := newTester(t, seed, weakFraction)
		if err := tester.FillPattern(p); err != nil {
			t.Fatal(err)
		}
		tester.Idle(idle)
		return tester
	}
	for _, seed := range []uint64{5, 23} {
		for _, p := range []Pattern{CheckerboardPattern(0), RandomPattern(int64(seed))} {
			refTester := prep(seed, p)
			want := sequentialReadBack(refTester)
			wantContent := moduleSnapshot(t, refTester.mod)
			if len(want) == 0 {
				t.Fatalf("seed %d pattern %s: oracle found no failures; test has no teeth", seed, p.Name)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				tester := prep(seed, p)
				got, err := tester.ReadBackParallel(context.Background(), workers)
				if err != nil {
					t.Fatal(err)
				}
				if !equalFailures(got, want) {
					t.Fatalf("seed %d pattern %s workers %d: failure list diverges from sequential scan (%d vs %d rows)",
						seed, p.Name, workers, len(got), len(want))
				}
				gotContent := moduleSnapshot(t, tester.mod)
				for i := range wantContent {
					if !slices.Equal(gotContent[i], wantContent[i]) {
						t.Fatalf("seed %d pattern %s workers %d: module content diverges at row index %d",
							seed, p.Name, workers, i)
					}
				}
			}
		}
	}
}

// TestReadBackEventsOrderedAcrossWorkers pins the observer contract: the
// KindRowFailure event stream is emitted from the sequential commit pass
// in scan order, identical at every worker count.
func TestReadBackEventsOrderedAcrossWorkers(t *testing.T) {
	idle := 2 * faults.CharacterizationIdle
	run := func(workers int) []obs.Event {
		tester := newTester(t, 5, 2e-2)
		rec := &obs.Recorder{}
		tester.SetObserver(rec)
		tester.SetParallelism(workers)
		if err := tester.FillPattern(CheckerboardPattern(0)); err != nil {
			t.Fatal(err)
		}
		tester.Idle(idle)
		tester.ReadBack()
		return rec.Events()
	}
	want := run(1)
	if len(want) == 0 {
		t.Fatal("no events recorded; test has no teeth")
	}
	for _, workers := range []int{4, 8} {
		got := run(workers)
		if len(got) != len(want) {
			t.Fatalf("workers %d: %d events, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers %d: event %d = %+v, want %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestReadBackAllocsBounded pins the allocation fix for the parallel
// read-back: the frozen pass reuses per-unit scratch and the commit
// pass packs result cells into one arena, so a steady-state ReadBack
// allocates a bounded handful of slices (result growth + fan-out
// plumbing) instead of one copy per failing row. The bound is loose
// enough for goroutine scheduling noise but far below the per-row
// regime this guards against (hundreds of failing rows per pass here).
func TestReadBackAllocsBounded(t *testing.T) {
	tester := newTester(t, 7, 5e-3)
	tester.SetParallelism(4)
	pattern := CheckerboardPattern(0)
	// Prime the reusable scratch; the first call pays the warm-up.
	if _, err := tester.RunPattern(pattern, faults.CharacterizationIdle); err != nil {
		t.Fatal(err)
	}
	failRows := 0
	allocs := testing.AllocsPerRun(5, func() {
		if err := tester.FillPattern(pattern); err != nil {
			t.Error(err)
			return
		}
		tester.Idle(faults.CharacterizationIdle)
		failRows = len(tester.ReadBack())
	})
	if failRows == 0 {
		t.Fatal("expected failing rows; the allocation bound would be vacuous")
	}
	// FillPattern allocates one row buffer; everything else is
	// ReadBack. 100 covers result-slice growth and parallel fan-out
	// with slack, while the pre-fix per-failing-row copies alone
	// exceeded it several times over.
	if allocs > 100 {
		t.Fatalf("ReadBack cycle allocated %.0f times (bound 100, %d failing rows)", allocs, failRows)
	}
}
