package faults

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"memcon/internal/dram"
)

// refModel is a frozen copy of the original map-based fault model (the
// implementation the packed kernel replaced), kept as the only scalar
// oracle for the differential tests below. It samples the weak-cell population with the
// exact same RNG call sequence and evaluates stress with the exact same
// float accumulation order, so any divergence from Model is a kernel
// bug, not noise.
type refModel struct {
	geom   dram.Geometry
	scr    *dram.Scrambler
	seed   uint64
	params Params

	byPhysRow    []map[int][]weakCell
	sysRowOfPhys [][]int
	sysColOfPhys []int
}

func newRefModel(geom dram.Geometry, scr *dram.Scrambler, seed uint64, params Params) *refModel {
	m := &refModel{
		geom:         geom,
		scr:          scr,
		seed:         seed,
		params:       params,
		byPhysRow:    make([]map[int][]weakCell, geom.BanksPerChip),
		sysRowOfPhys: make([][]int, geom.BanksPerChip),
	}
	m.sysColOfPhys = make([]int, geom.PhysCols())
	for i := range m.sysColOfPhys {
		m.sysColOfPhys[i] = -1
	}
	for c := 0; c < geom.ColsPerRow; c++ {
		m.sysColOfPhys[scr.PhysCol(c)] = c
	}
	for b := 0; b < geom.BanksPerChip; b++ {
		rng := rand.New(rand.NewSource(int64(seed ^ uint64(b)*0x9e3779b97f4a7c15)))
		cells := geom.RowsPerBank * geom.PhysCols()
		n := int(math.Round(float64(cells) * params.WeakCellFraction))
		byRow := make(map[int][]weakCell)
		seen := make(map[int]bool, n)
		for len(seen) < n {
			pos := rng.Intn(cells)
			if seen[pos] {
				continue
			}
			seen[pos] = true
			pr := pos / geom.PhysCols()
			pc := pos % geom.PhysCols()
			byRow[pr] = append(byRow[pr], m.makeWeakCell(rng, pr, pc))
		}
		for pr := range byRow {
			row := byRow[pr]
			sort.Slice(row, func(i, j int) bool { return row[i].physCol < row[j].physCol })
		}
		m.byPhysRow[b] = byRow
		inv := make([]int, geom.RowsPerBank)
		for r := 0; r < geom.RowsPerBank; r++ {
			inv[scr.PhysRow(b, r)] = r
		}
		m.sysRowOfPhys[b] = inv
	}
	return m
}

func (m *refModel) makeWeakCell(rng *rand.Rand, pr, pc int) weakCell {
	lf := math.Log(float64(m.params.RetentionFloor))
	lc := math.Log(float64(m.params.RetentionCeil))
	base := dram.Nanoseconds(math.Exp(lf + rng.Float64()*(lc-lf)))
	bl := m.params.BitlineWeight
	l := rng.Float64()
	u := rng.Float64()
	w := [4]float64{bl * l, bl * (1 - l), (1 - bl) * u, (1 - bl) * (1 - u)}
	return weakCell{physRow: pr, physCol: pc, baseRetention: base, w: w}
}

func (m *refModel) trueCell(physRow int) bool {
	off := int(m.seed>>7) & 1
	return ((physRow+off)/2)%2 == 0
}

func (m *refModel) charged(physRow, bit int) bool {
	if m.trueCell(physRow) {
		return bit == 1
	}
	return bit == 0
}

func (m *refModel) bitAtPhys(mod *dram.Module, bank, physRow, physCol int) int {
	if physRow < 0 || physRow >= m.geom.RowsPerBank || physCol < 0 || physCol >= m.geom.PhysCols() {
		return -1
	}
	sysCol := m.sysColOfPhys[physCol]
	if sysCol < 0 {
		return 0
	}
	sysRow := m.sysRowOfPhys[bank][physRow]
	return mod.RowRef(dram.RowAddress{Bank: bank, Row: sysRow}).Bit(sysCol)
}

func (m *refModel) stress(mod *dram.Module, bank int, wc weakCell) float64 {
	neighbours := [4]struct{ dr, dc int }{{0, -1}, {0, 1}, {-1, 0}, {1, 0}}
	var s float64
	for i, n := range neighbours {
		pr := wc.physRow + n.dr
		pc := wc.physCol + n.dc
		bit := m.bitAtPhys(mod, bank, pr, pc)
		if bit < 0 {
			continue
		}
		if !m.charged(pr, bit) {
			s += wc.w[i]
		}
	}
	return s
}

func (m *refModel) failingCells(mod *dram.Module, a dram.RowAddress, idle dram.Nanoseconds) []int {
	physRow := m.scr.PhysRow(a.Bank, a.Row)
	cells := m.byPhysRow[a.Bank][physRow]
	var failing []int
	for _, wc := range cells {
		sysCol := m.sysColOfPhys[wc.physCol]
		if sysCol < 0 {
			continue
		}
		bit := mod.RowRef(a).Bit(sysCol)
		if !m.charged(wc.physRow, bit) {
			continue
		}
		s := m.stress(mod, a.Bank, wc)
		eff := dram.Nanoseconds(float64(wc.baseRetention) * (1 - m.params.MaxStress*s))
		if idle > eff {
			failing = append(failing, sysCol)
		}
	}
	return failing
}

func (m *refModel) rowCanFail(a dram.RowAddress, idle dram.Nanoseconds) bool {
	physRow := m.scr.PhysRow(a.Bank, a.Row)
	for _, wc := range m.byPhysRow[a.Bank][physRow] {
		if m.sysColOfPhys[wc.physCol] < 0 {
			continue
		}
		neighbours := [4]struct{ dr, dc int }{{0, -1}, {0, 1}, {-1, 0}, {1, 0}}
		var maxStress float64
		for i, n := range neighbours {
			pr := wc.physRow + n.dr
			pc := wc.physCol + n.dc
			if pr < 0 || pr >= m.geom.RowsPerBank || pc < 0 || pc >= m.geom.PhysCols() {
				continue
			}
			maxStress += wc.w[i]
		}
		eff := dram.Nanoseconds(float64(wc.baseRetention) * (1 - m.params.MaxStress*maxStress))
		if idle > eff {
			return true
		}
	}
	return false
}

// diffConfig is one differential-test chip configuration.
type diffConfig struct {
	name       string
	geom       dram.Geometry
	seed       uint64
	params     Params
	faultyCols []int
	// mapping selects the vendor address mapping ("" = default).
	mapping string
	// wantSpill marks configs dense enough that some row fails in more
	// than 64 cells, so the kernel's output-order restoration is checked
	// over more failing cells than one row word holds.
	wantSpill bool
}

func diffConfigs() []diffConfig {
	small := dram.Geometry{
		Ranks: 1, ChipsPerRank: 1, BanksPerChip: 2,
		RowsPerBank: 256, ColsPerRow: 512, RedundantCols: 16,
	}
	dense := small
	odd := dram.Geometry{
		Ranks: 1, ChipsPerRank: 1, BanksPerChip: 2,
		RowsPerBank: 192, ColsPerRow: 256, RedundantCols: 8,
	}
	tiny := dram.Geometry{
		Ranks: 1, ChipsPerRank: 1, BanksPerChip: 1,
		RowsPerBank: 64, ColsPerRow: 128, RedundantCols: 8,
	}
	denseParams := DefaultParams()
	denseParams.WeakCellFraction = 2e-2 // dense enough for edge cells and adjacent weak pairs
	spillParams := DefaultParams()
	spillParams.WeakCellFraction = 0.6 // >64 failing cells in some rows
	return []diffConfig{
		{name: "small-seed3", geom: small, seed: 3, params: DefaultParams()},
		{name: "small-seed42-dense", geom: dense, seed: 42, params: denseParams},
		{name: "small-seed99-remapped", geom: small, seed: 99, params: denseParams,
			faultyCols: []int{0, 1, 7, 100, 101, 511}},
		{name: "oddrows-seed7", geom: odd, seed: 7, params: denseParams},
		{name: "small-seed5-gray", geom: small, seed: 5, params: denseParams, mapping: "gray"},
		{name: "small-seed13-linear", geom: small, seed: 13, params: denseParams, mapping: "linear",
			faultyCols: []int{2, 3, 200, 201}},
		{name: "oddrows-seed11-mirror", geom: odd, seed: 11, params: denseParams, mapping: "mirror"},
		{name: "tiny-seed17-spill", geom: tiny, seed: 17, params: spillParams, wantSpill: true},
	}
}

// newDiffScrambler builds a config's scrambler through the mapping
// registry, so every differential test sweeps vendor mappings.
func newDiffScrambler(tb testing.TB, cfg diffConfig) *dram.Scrambler {
	tb.Helper()
	scr, err := dram.NewMappedScrambler(cfg.geom, cfg.seed, cfg.faultyCols, cfg.mapping)
	if err != nil {
		tb.Fatal(err)
	}
	return scr
}

// diffIdles returns the idle times each config is checked at: below the
// retention floor (nothing fails), at the floor, within the window, and
// above the ceiling (every charged weak cell fails).
func diffIdles(p Params) []dram.Nanoseconds {
	return []dram.Nanoseconds{
		p.RetentionFloor / 2,
		p.RetentionFloor,
		2 * p.RetentionFloor,
		p.RetentionCeil + p.RetentionFloor,
	}
}

// fillRandom stores deterministic pseudo-random content in every row.
func fillRandom(t *testing.T, mod *dram.Module, seed int64) {
	t.Helper()
	g := mod.Geometry()
	rng := rand.New(rand.NewSource(seed))
	buf := dram.NewRow(g.ColsPerRow)
	for b := 0; b < g.BanksPerChip; b++ {
		for r := 0; r < g.RowsPerBank; r++ {
			buf.Randomize(rng)
			if err := mod.WriteRow(dram.RowAddress{Bank: b, Row: r}, buf, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func fillSolid(t *testing.T, mod *dram.Module, word uint64) {
	t.Helper()
	g := mod.Geometry()
	buf := dram.NewRow(g.ColsPerRow)
	buf.Fill(word)
	for b := 0; b < g.BanksPerChip; b++ {
		for r := 0; r < g.RowsPerBank; r++ {
			if err := mod.WriteRow(dram.RowAddress{Bank: b, Row: r}, buf, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// diffModules returns one module per content the differential tests
// sweep: three random fills, both solid fills, and an alternating
// pattern.
func diffModules(t *testing.T, geom dram.Geometry) []*dram.Module {
	t.Helper()
	var mods []*dram.Module
	for _, fill := range []func(*dram.Module){
		func(m *dram.Module) { fillRandom(t, m, 1) },
		func(m *dram.Module) { fillRandom(t, m, 2) },
		func(m *dram.Module) { fillRandom(t, m, 6) },
		func(m *dram.Module) { fillSolid(t, m, 0) },
		func(m *dram.Module) { fillSolid(t, m, ^uint64(0)) },
		func(m *dram.Module) { fillSolid(t, m, 0xAAAAAAAAAAAAAAAA) },
	} {
		mod, err := dram.NewModule(geom)
		if err != nil {
			t.Fatal(err)
		}
		fill(mod)
		mods = append(mods, mod)
	}
	return mods
}

// TestFlatKernelMatchesReference is the differential test for the
// packed kernel: FailingCells (cells and order) and RowCanFail must
// agree with the original map-based implementation on every row, across
// seeds, geometries (edge rows/cols, non-power-of-two rows, remapped
// columns), vendor mappings, contents, and idle times.
func TestFlatKernelMatchesReference(t *testing.T) {
	for _, cfg := range diffConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			scr := newDiffScrambler(t, cfg)
			model, err := NewModel(cfg.geom, scr, cfg.seed, cfg.params)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefModel(cfg.geom, scr, cfg.seed, cfg.params)
			for b := 0; b < cfg.geom.BanksPerChip; b++ {
				if got, want := model.WeakCellCount(b), len(flatten(ref.byPhysRow[b])); got != want {
					t.Fatalf("bank %d: WeakCellCount = %d, reference sampled %d", b, got, want)
				}
			}
			for ci, mod := range diffModules(t, cfg.geom) {
				for _, idle := range diffIdles(cfg.params) {
					for b := 0; b < cfg.geom.BanksPerChip; b++ {
						for r := 0; r < cfg.geom.RowsPerBank; r++ {
							a := dram.RowAddress{Bank: b, Row: r}
							got := model.FailingCells(mod, a, idle)
							want := ref.failingCells(mod, a, idle)
							if !equalInts(got, want) {
								t.Fatalf("content %d idle %d bank %d row %d: FailingCells = %v, reference %v",
									ci, idle, b, r, got, want)
							}
							if g, w := model.RowCanFail(a, idle), ref.rowCanFail(a, idle); g != w {
								t.Fatalf("content %d idle %d bank %d row %d: RowCanFail = %v, reference %v",
									ci, idle, b, r, g, w)
							}
						}
					}
				}
			}
		})
	}
}

// TestWordKernelMatchesScalar differential-tests the word kernel's
// append path against the scalar reference: appending into a dst that
// already holds other values must leave that prefix untouched and
// append exactly the reference's failing cells, in physical-column
// order — the kernel restores that order over the appended tail only.
// The tiny-seed17-spill config must really produce a row with more than
// 64 failing cells, so the order restoration is checked over more cells
// than one row word holds (asserted, not assumed).
func TestWordKernelMatchesScalar(t *testing.T) {
	prefix := []int{1 << 30, -1, 1 << 29} // out of order: a sort reaching into it shows
	for _, cfg := range diffConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			scr := newDiffScrambler(t, cfg)
			model, err := NewModel(cfg.geom, scr, cfg.seed, cfg.params)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefModel(cfg.geom, scr, cfg.seed, cfg.params)
			maxFails := 0
			var buf []int
			for ci, mod := range diffModules(t, cfg.geom) {
				for _, idle := range diffIdles(cfg.params) {
					for b := 0; b < cfg.geom.BanksPerChip; b++ {
						for r := 0; r < cfg.geom.RowsPerBank; r++ {
							a := dram.RowAddress{Bank: b, Row: r}
							buf = model.AppendFailingCells(append(buf[:0], prefix...), mod, a, idle)
							want := ref.failingCells(mod, a, idle)
							if !equalInts(buf[:len(prefix)], prefix) || !equalInts(buf[len(prefix):], want) {
								t.Fatalf("content %d idle %d bank %d row %d: appended %v after %v, reference %v",
									ci, idle, b, r, buf[len(prefix):], buf[:len(prefix)], want)
							}
							maxFails = max(maxFails, len(want))
						}
					}
				}
			}
			if cfg.wantSpill && maxFails <= 64 {
				t.Fatalf("spill config topped out at %d failing cells per row; need > 64", maxFails)
			}
		})
	}
}

// TestAffectedNeighborRowsMatchesReference checks AffectedNeighborRows
// against a brute-force walk of the reference population: after a row's
// FailingCells flip, the affected rows are exactly those (the row itself
// and its two physical neighbours) holding a mapped weak cell physically
// adjacent to a flipped cell. Compared as sets: the read-back commit pass
// sorts and deduplicates the rows it re-evaluates.
func TestAffectedNeighborRowsMatchesReference(t *testing.T) {
	checked := 0 // positive cases over all configs
	for _, cfg := range diffConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			scr := newDiffScrambler(t, cfg)
			model, err := NewModel(cfg.geom, scr, cfg.seed, cfg.params)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefModel(cfg.geom, scr, cfg.seed, cfg.params)
			mappedWeakAt := func(b, qr, qc int) bool {
				if qr < 0 || qr >= cfg.geom.RowsPerBank || qc < 0 || qc >= cfg.geom.PhysCols() ||
					ref.sysColOfPhys[qc] < 0 {
					return false
				}
				for _, wc := range ref.byPhysRow[b][qr] {
					if wc.physCol == qc {
						return true
					}
				}
				return false
			}
			for ci, mod := range diffModules(t, cfg.geom) {
				for _, idle := range diffIdles(cfg.params) {
					for b := 0; b < cfg.geom.BanksPerChip; b++ {
						for r := 0; r < cfg.geom.RowsPerBank; r++ {
							a := dram.RowAddress{Bank: b, Row: r}
							flipped := model.FailingCells(mod, a, idle)
							pr := scr.PhysRow(b, r)
							want := map[int]bool{}
							for _, c := range flipped {
								pc := scr.PhysCol(c)
								for _, q := range [4][2]int{{pr, pc - 1}, {pr, pc + 1}, {pr - 1, pc}, {pr + 1, pc}} {
									if mappedWeakAt(b, q[0], q[1]) {
										want[ref.sysRowOfPhys[b][q[0]]] = true
									}
								}
							}
							got := map[int]bool{}
							for _, n := range model.AffectedNeighborRows(a, flipped) {
								if n.Bank != b {
									t.Fatalf("row %v: affected row %v in another bank", a, n)
								}
								got[n.Row] = true
							}
							if len(got) != len(want) {
								t.Fatalf("content %d idle %d row %v: affected rows %v, reference %v", ci, idle, a, got, want)
							}
							for row := range want {
								if !got[row] {
									t.Fatalf("content %d idle %d row %v: affected rows %v, reference %v", ci, idle, a, got, want)
								}
							}
							checked += len(want)
						}
					}
				}
			}
		})
	}
	if checked == 0 {
		t.Fatal("no affected rows anywhere: the oracle never ran a positive case")
	}
}

func flatten(byRow map[int][]weakCell) []weakCell {
	var out []weakCell
	for _, cells := range byRow {
		out = append(out, cells...)
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestColdModelConcurrentQueries hits a freshly built model from many
// goroutines without any warm-up call — the lazy-initialization race the
// eager NewModel build removed. Run under -race this fails loudly if
// construction ever becomes lazy again.
func TestColdModelConcurrentQueries(t *testing.T) {
	geom := dram.Geometry{
		Ranks: 1, ChipsPerRank: 1, BanksPerChip: 4,
		RowsPerBank: 128, ColsPerRow: 256, RedundantCols: 8,
	}
	params := DefaultParams()
	params.WeakCellFraction = 5e-3
	scr := dram.NewScrambler(geom, 11, nil)
	model, err := NewModel(geom, scr, 11, params)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := dram.NewModule(geom)
	if err != nil {
		t.Fatal(err)
	}
	fillRandom(t, mod, 5)

	const goroutines = 8
	var wg sync.WaitGroup
	counts := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			idle := 2 * params.RetentionFloor
			for b := 0; b < geom.BanksPerChip; b++ {
				for r := 0; r < geom.RowsPerBank; r++ {
					a := dram.RowAddress{Bank: b, Row: r}
					if model.RowCanFail(a, idle) {
						counts[g] += len(model.FailingCells(mod, a, idle))
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if counts[g] != counts[0] {
			t.Fatalf("goroutine %d counted %d failing cells, goroutine 0 counted %d", g, counts[g], counts[0])
		}
	}
}

// TestAppendFailingCellsReusesBuffer pins the buffer-reuse contract the
// core hot path depends on: appending into a capacious dst must not
// allocate a new backing array.
func TestAppendFailingCellsReusesBuffer(t *testing.T) {
	geom := dram.Geometry{
		Ranks: 1, ChipsPerRank: 1, BanksPerChip: 1,
		RowsPerBank: 128, ColsPerRow: 256, RedundantCols: 8,
	}
	params := DefaultParams()
	params.WeakCellFraction = 2e-2
	scr := dram.NewScrambler(geom, 21, nil)
	model, err := NewModel(geom, scr, 21, params)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := dram.NewModule(geom)
	if err != nil {
		t.Fatal(err)
	}
	fillSolid(t, mod, 0xAAAAAAAAAAAAAAAA)
	idle := params.RetentionCeil + params.RetentionFloor

	buf := make([]int, 0, geom.ColsPerRow)
	var total int
	allocs := testing.AllocsPerRun(10, func() {
		total = 0
		for r := 0; r < geom.RowsPerBank; r++ {
			buf = model.AppendFailingCells(buf[:0], mod, dram.RowAddress{Bank: 0, Row: r}, idle)
			total += len(buf)
		}
	})
	if total == 0 {
		t.Fatal("expected some failing cells above the retention ceiling")
	}
	if allocs != 0 {
		t.Fatalf("AppendFailingCells allocated %.1f times per scan with a reused buffer", allocs)
	}
}

// TestRowCanFailMonotone sanity-checks the cached per-row bound: a row
// reported unable to fail must show no failing cells under any of the
// probe contents at that idle time.
func TestRowCanFailMonotone(t *testing.T) {
	cfg := diffConfigs()[1]
	scr := newDiffScrambler(t, cfg)
	model, err := NewModel(cfg.geom, scr, cfg.seed, cfg.params)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := dram.NewModule(cfg.geom)
	if err != nil {
		t.Fatal(err)
	}
	fillRandom(t, mod, 9)
	for _, idle := range diffIdles(cfg.params) {
		for b := 0; b < cfg.geom.BanksPerChip; b++ {
			for r := 0; r < cfg.geom.RowsPerBank; r++ {
				a := dram.RowAddress{Bank: b, Row: r}
				if !model.RowCanFail(a, idle) {
					if cells := model.FailingCells(mod, a, idle); len(cells) > 0 {
						t.Fatalf("bank %d row %d idle %d: RowCanFail false but %d cells fail",
							b, r, idle, len(cells))
					}
				}
			}
		}
	}
}

func BenchmarkReferenceParity(b *testing.B) {
	// Not a performance benchmark: a cheap guard that keeps the
	// reference model compiling and sampling, so the differential
	// oracle cannot silently rot. Runs one row end to end.
	cfg := diffConfigs()[0]
	scr := newDiffScrambler(b, cfg)
	model, err := NewModel(cfg.geom, scr, cfg.seed, cfg.params)
	if err != nil {
		b.Fatal(err)
	}
	ref := newRefModel(cfg.geom, scr, cfg.seed, cfg.params)
	mod, err := dram.NewModule(cfg.geom)
	if err != nil {
		b.Fatal(err)
	}
	a := dram.RowAddress{Bank: 0, Row: 17}
	idle := 2 * cfg.params.RetentionFloor
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := model.FailingCells(mod, a, idle)
		want := ref.failingCells(mod, a, idle)
		if !equalInts(got, want) {
			b.Fatalf("parity broken: %v vs %v", got, want)
		}
	}
}
