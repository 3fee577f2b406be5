// Package softmc provides a programmatic DRAM test harness modelled on
// the SoftMC FPGA infrastructure the paper uses to characterize real
// chips. It drives a dram.Module + faults.Model pair through the three
// canonical characterization steps:
//
//  1. fill the array with content (a synthetic data pattern or a dumped
//     program image),
//  2. keep the array idle for a chosen refresh interval,
//  3. read the content back and diff against what was written.
//
// The harness only uses the system-facing Module API — like a real
// memory controller it has no visibility into scrambling or remapping —
// which is exactly the constraint MEMCON is designed around.
package softmc

import (
	"context"
	"fmt"
	"sort"

	"memcon/internal/dram"
	"memcon/internal/faults"
	"memcon/internal/obs"
	"memcon/internal/parallel"
)

// Pattern is a synthetic data pattern used for characterization, in the
// style of manufacturing test patterns (solid, stripes, checkerboards,
// walking bits, random).
type Pattern struct {
	// Name identifies the pattern in reports.
	Name string
	// Fill writes the pattern's content for a given row into dst.
	// row is the system row index so row-dependent patterns (row
	// stripes, checkerboards) can alternate.
	Fill func(dst dram.Row, row int)
}

// SolidPattern returns a pattern storing the same bit everywhere.
func SolidPattern(bit int) Pattern {
	word := uint64(0)
	if bit == 1 {
		word = ^uint64(0)
	}
	return Pattern{
		Name: fmt.Sprintf("solid-%d", bit),
		Fill: func(dst dram.Row, _ int) { dst.Fill(word) },
	}
}

// CheckerboardPattern returns the classic 0101/1010 checkerboard;
// phase selects which of the two alignments is used.
func CheckerboardPattern(phase int) Pattern {
	return Pattern{
		Name: fmt.Sprintf("checker-%d", phase&1),
		Fill: func(dst dram.Row, row int) {
			even := uint64(0x5555555555555555)
			odd := uint64(0xAAAAAAAAAAAAAAAA)
			if (row+phase)%2 == 0 {
				dst.Fill(even)
			} else {
				dst.Fill(odd)
			}
		},
	}
}

// RowStripePattern alternates all-ones and all-zero rows; phase selects
// the alignment.
func RowStripePattern(phase int) Pattern {
	return Pattern{
		Name: fmt.Sprintf("rowstripe-%d", phase&1),
		Fill: func(dst dram.Row, row int) {
			if (row+phase)%2 == 0 {
				dst.Fill(0)
			} else {
				dst.Fill(^uint64(0))
			}
		},
	}
}

// ColStripePattern alternates columns of ones and zeros; phase selects
// the alignment.
func ColStripePattern(phase int) Pattern {
	return Pattern{
		Name: fmt.Sprintf("colstripe-%d", phase&1),
		Fill: func(dst dram.Row, _ int) {
			w := uint64(0x5555555555555555)
			if phase&1 == 1 {
				w = 0xAAAAAAAAAAAAAAAA
			}
			dst.Fill(w)
		},
	}
}

// WalkingPattern places a walking 1 (bit=1) or walking 0 (bit=0) at the
// given offset within every 64-bit word. The offset wraps modulo 64 with
// a non-negative result, and the same normalized value appears in the
// pattern name, so WalkingPattern(1, -8) both walks bit 56 and is named
// walk1-56.
func WalkingPattern(bit, offset int) Pattern {
	offset = ((offset % 64) + 64) % 64
	w := uint64(1) << uint(offset)
	if bit == 0 {
		w = ^w
	}
	kind := "walk1"
	if bit == 0 {
		kind = "walk0"
	}
	return Pattern{
		Name: fmt.Sprintf("%s-%d", kind, offset),
		Fill: func(dst dram.Row, _ int) { dst.Fill(w) },
	}
}

// RandomPattern fills rows with pseudo-random bits derived from seed.
// Each call to Fill is deterministic in (seed, row): row r holds the
// first words of rand.New(rand.NewSource(seed ^ int64(r)*0x9E3779B9)),
// computed without building that source (see randfill.go).
func RandomPattern(seed int64) Pattern {
	t := seedTables()
	return Pattern{
		Name: fmt.Sprintf("random-%d", seed),
		Fill: func(dst dram.Row, row int) { t.fill(dst, seed^int64(row)*0x9E3779B9) },
	}
}

// StandardPatterns returns the n-pattern characterization suite used for
// the Fig. 3-style experiments: the classic manufacturing patterns first,
// padded with seeded random patterns up to n.
func StandardPatterns(n int) []Pattern {
	ps := []Pattern{
		SolidPattern(0), SolidPattern(1),
		CheckerboardPattern(0), CheckerboardPattern(1),
		RowStripePattern(0), RowStripePattern(1),
		ColStripePattern(0), ColStripePattern(1),
	}
	for i := 0; i < 8 && len(ps) < n; i++ {
		ps = append(ps, WalkingPattern(1, i*8), WalkingPattern(0, i*8+4))
	}
	for s := int64(1); len(ps) < n; s++ {
		ps = append(ps, RandomPattern(s))
	}
	return ps[:n]
}

// Tester drives characterization runs over one module/fault-model pair.
type Tester struct {
	mod   *dram.Module
	model *faults.Model
	// now is the harness-local clock.
	now dram.Nanoseconds
	// workers is the fan-out of ReadBack and AllFailFraction; results
	// are byte-identical at any value (see ReadBack). Default 1.
	workers int
	// obs receives per-row characterization events. During parallel
	// scans it is invoked from multiple goroutines, so only observers
	// safe for concurrent use (obs.Metrics, obs.Recorder) should be
	// installed when workers > 1. ReadBack is the exception: its events
	// are emitted from the sequential commit pass regardless of workers.
	obs obs.Observer

	// scan holds ReadBack's frozen-pass scratch, one unit per (bank,
	// chunk), reused across calls so repeated read-backs stop paying the
	// per-row copy allocations PR 3's parallel scan introduced. Reusing
	// it means a Tester must not run overlapping ReadBack calls — which
	// was already the contract (ReadBack mutates the module).
	scan []scanUnit
	// commitBuf is the commit pass's dirty-row re-evaluation buffer.
	commitBuf []int
	// pending is the commit pass's sorted dirty-row worklist.
	pending []int
	// spans stages per-failure arena offsets until the arena stops
	// growing and Cells slices can be cut from it.
	spans []int32
}

// scanUnit is one chunk's reusable frozen-pass result: the failing rows
// and their cells in CSR form (rows[i]'s cells are
// cells[offs[i]:offs[i+1]]).
type scanUnit struct {
	rows  []int32
	offs  []int32
	cells []int
}

// NewTester creates a tester over the module and fault model, which must
// share a geometry.
func NewTester(mod *dram.Module, model *faults.Model) (*Tester, error) {
	if mod.Geometry() != model.Geometry() {
		return nil, fmt.Errorf("softmc: module and fault model geometries differ")
	}
	return &Tester{mod: mod, model: model, workers: 1}, nil
}

// SetParallelism sets the worker count ReadBack (and the runs built on
// it) and AllFailFraction fan out to. Values below 1 select GOMAXPROCS.
// The output is byte-identical at any setting; the default is 1.
func (t *Tester) SetParallelism(n int) { t.workers = n }

// SetObserver installs an observer notified of row failures seen by
// ReadBack (obs.KindRowFailure, Aux = failing cells) and weak rows
// found by the exhaustive scan (obs.KindRowWeak). A nil observer — the
// default — adds no work to either path.
func (t *Tester) SetObserver(o obs.Observer) { t.obs = o }

// Now returns the harness clock.
func (t *Tester) Now() dram.Nanoseconds { return t.now }

// FillPattern writes the pattern into every row of every bank, fully
// charging the array.
func (t *Tester) FillPattern(p Pattern) error {
	g := t.mod.Geometry()
	buf := dram.NewRow(g.ColsPerRow)
	for b := 0; b < g.BanksPerChip; b++ {
		for r := 0; r < g.RowsPerBank; r++ {
			p.Fill(buf, r)
			if err := t.mod.WriteRow(dram.RowAddress{Bank: b, Row: r}, buf, t.now); err != nil {
				return err
			}
		}
	}
	return nil
}

// FillContent replicates the given content image across the whole module
// row by row (the paper duplicates each workload's memory footprint
// across the module so the entire chip holds program content). The image
// is a slice of rows; it wraps when shorter than the module.
func (t *Tester) FillContent(image []dram.Row) error {
	if len(image) == 0 {
		return fmt.Errorf("softmc: empty content image")
	}
	g := t.mod.Geometry()
	for b := 0; b < g.BanksPerChip; b++ {
		for r := 0; r < g.RowsPerBank; r++ {
			src := image[(b*g.RowsPerBank+r)%len(image)]
			if err := t.mod.WriteRow(dram.RowAddress{Bank: b, Row: r}, src, t.now); err != nil {
				return err
			}
		}
	}
	return nil
}

// Idle advances the harness clock without touching the array.
func (t *Tester) Idle(d dram.Nanoseconds) {
	if d > 0 {
		t.now += d
	}
}

// RowFailure describes the failures observed in one row during ReadBack.
type RowFailure struct {
	Addr  dram.RowAddress
	Cells []int
}

// ReadBack reads the whole array, returning every row that shows
// data-dependent failures given how long each row has been idle.
// Failures are committed to the stored content (the charge is gone) and
// every row is recharged by the read, just like a real read-back pass.
//
// The scan fans out over the tester's parallelism (SetParallelism).
// Determinism contract: the scan first evaluates every row against the
// FROZEN pre-read content in sharded per-bank row chunks (pure reads),
// then a single sequential commit pass walks rows in global (bank, row)
// order, committing flips and recharging. A committed flip discharges a
// cell, which can only add interference stress to weak cells that read
// it as a neighbour — so any later row a flip could influence is
// re-evaluated against the then-current content
// (Model.AffectedNeighborRows names exactly those rows). The result is
// byte-identical to a strictly sequential commit-as-you-go scan at any
// worker count, and observer events fire from the commit pass in scan
// order.
func (t *Tester) ReadBack() []RowFailure {
	g := t.mod.Geometry()
	units := g.BanksPerChip * chunksPerBank
	if len(t.scan) != units {
		t.scan = make([]scanUnit, units)
	}
	err := parallel.ForEach(context.Background(), units, t.workers, func(u int) error {
		sc := &t.scan[u]
		sc.rows = sc.rows[:0]
		sc.offs = append(sc.offs[:0], 0)
		sc.cells = sc.cells[:0]
		b := u / chunksPerBank
		// Scan the bank's weak-row worklist instead of all RowsPerBank
		// rows: rows without weak cells can never fail, and at the
		// default weak-cell density that skips ~70% of the bank without
		// even an idle-time lookup. weakRows is ascending, so chunking
		// it keeps each unit's rows sorted and the units concatenating
		// into scan order — the commit-pass merge below is unchanged.
		weakRows, _ := t.model.WeakRowFloors(b)
		lo, hi := chunkBounds(len(weakRows), u%chunksPerBank)
		sc.cells, sc.rows, sc.offs = t.model.AppendFailingRows(
			t.mod, b, lo, hi, t.now, sc.cells, sc.rows, sc.offs)
		return nil
	})
	if err != nil {
		// A background context cannot be cancelled, so only a worker
		// panic (repackaged by parallel.ForEach) lands here.
		panic(err)
	}
	// Commit pass: sequential, in global row order. The chunk units are
	// ordered by (bank, row range), so their frozen results concatenate
	// into scan order; the walk merges that stream with the sorted
	// dirty-row worklist instead of visiting every row. Result cells are
	// packed into one arena (cut into per-row slices once it stops
	// growing), so a call allocates O(log n) slice growths rather than
	// one copy per failing row.
	// The frozen pass counted (almost) the final totals: commit-time
	// re-evaluation can add a few rows and cells, so the counts are a
	// capacity hint, not a bound.
	nRows, nCells := 0, 0
	for u := range t.scan {
		nRows += len(t.scan[u].rows)
		nCells += len(t.scan[u].cells)
	}
	fails := make([]RowFailure, 0, nRows+8)
	arena := make([]int, 0, nCells+16)
	t.spans = t.spans[:0]
	for b := 0; b < g.BanksPerChip; b++ {
		// pending holds rows of THIS bank whose frozen verdict may
		// under-report (physical neighbours never cross banks); rows
		// enter only when a committed flip lands next to a weak cell,
		// and always lie past the scan cursor.
		t.pending = t.pending[:0]
		u := b * chunksPerBank
		uEnd := u + chunksPerBank
		ri := 0 // cursor into t.scan[u].rows
		for {
			for u < uEnd && ri >= len(t.scan[u].rows) {
				u, ri = u+1, 0
			}
			fr := g.RowsPerBank // next frozen failing row (sentinel: none)
			if u < uEnd {
				fr = int(t.scan[u].rows[ri])
			}
			r := fr
			if len(t.pending) > 0 && t.pending[0] < r {
				r = t.pending[0]
			}
			if r == g.RowsPerBank {
				break
			}
			a := dram.RowAddress{Bank: b, Row: r}
			var cells []int
			if fr == r {
				sc := &t.scan[u]
				cells = sc.cells[sc.offs[ri]:sc.offs[ri+1]]
				ri++
			}
			if len(t.pending) > 0 && t.pending[0] == r {
				t.pending = t.pending[1:]
				// An earlier committed flip may have added stress here;
				// the frozen verdict can under-report, never over-report.
				t.commitBuf = t.model.AppendFailingCells(t.commitBuf[:0], t.mod, a, t.mod.IdleTime(a, t.now))
				cells = t.commitBuf
			}
			if len(cells) > 0 {
				t.mod.ApplyFlips(a, cells)
				t.spans = append(t.spans, int32(len(arena)))
				arena = append(arena, cells...)
				fails = append(fails, RowFailure{Addr: a})
				if t.obs != nil {
					t.obs.OnEvent(obs.Event{
						Kind: obs.KindRowFailure,
						Page: uint32(g.RowIndex(a)),
						At:   int64(t.now / dram.Microsecond),
						Aux:  int64(len(cells)),
					})
				}
				for _, nb := range t.model.AffectedNeighborRows(a, cells) {
					// Rows at or before the scan cursor were evaluated
					// before these flips existed, exactly as a
					// sequential scan would have.
					if nb.Row > r {
						t.pending = insertRow(t.pending, nb.Row)
					}
				}
			}
		}
	}
	// Every row was read, so every row recharges — exactly what the
	// per-row Activate calls of the row-by-row walk amounted to.
	t.mod.RechargeAll(t.now)
	for i := range fails {
		lo := int(t.spans[i])
		hi := len(arena)
		if i+1 < len(fails) {
			hi = int(t.spans[i+1])
		}
		fails[i].Cells = arena[lo:hi:hi]
	}
	return fails
}

// insertRow inserts r into the sorted worklist p, keeping it unique.
func insertRow(p []int, r int) []int {
	i := sort.SearchInts(p, r)
	if i < len(p) && p[i] == r {
		return p
	}
	p = append(p, 0)
	copy(p[i+1:], p[i:])
	p[i] = r
	return p
}

// RunPattern performs one full characterization run: fill with the
// pattern, stay idle for idle, read back. It returns the failing rows.
func (t *Tester) RunPattern(p Pattern, idle dram.Nanoseconds) ([]RowFailure, error) {
	if err := t.FillPattern(p); err != nil {
		return nil, err
	}
	t.Idle(idle)
	return t.ReadBack(), nil
}

// RunContent performs one full characterization run with a program
// content image.
func (t *Tester) RunContent(image []dram.Row, idle dram.Nanoseconds) ([]RowFailure, error) {
	if err := t.FillContent(image); err != nil {
		return nil, err
	}
	t.Idle(idle)
	return t.ReadBack(), nil
}

// FailingRowFraction is a convenience that runs the content image and
// returns the fraction of module rows with at least one failure.
func (t *Tester) FailingRowFraction(image []dram.Row, idle dram.Nanoseconds) (float64, error) {
	fails, err := t.RunContent(image, idle)
	if err != nil {
		return 0, err
	}
	g := t.mod.Geometry()
	return float64(len(fails)) / float64(g.TotalRows()), nil
}

// AllFailFraction returns the fraction of rows that can fail under SOME
// data pattern at the given idle time — the exhaustive-testing
// denominator (ALL FAIL in Fig. 4). The scan fans out over the tester's
// parallelism (SetParallelism): RowCanFail only reads the immutable
// fault model, so the rows shard into contiguous ranges per bank, and
// the total is a count, identical for any worker count. A cancelled
// context surfaces as a non-nil error — never as a silent zero
// fraction, which would be indistinguishable from "no weak rows".
func (t *Tester) AllFailFraction(ctx context.Context, idle dram.Nanoseconds) (float64, error) {
	g := t.mod.Geometry()
	counts, err := parallel.Map(ctx, g.BanksPerChip*chunksPerBank, t.workers, func(u int) (int, error) {
		b := u / chunksPerBank
		lo, hi := chunkBounds(g.RowsPerBank, u%chunksPerBank)
		fails := 0
		for r := lo; r < hi; r++ {
			a := dram.RowAddress{Bank: b, Row: r}
			if t.model.RowCanFail(a, idle) {
				fails++
				if t.obs != nil {
					t.obs.OnEvent(obs.Event{
						Kind: obs.KindRowWeak,
						Page: uint32(g.RowIndex(a)),
						At:   int64(t.now / dram.Microsecond),
					})
				}
			}
		}
		return fails, nil
	})
	if err != nil {
		return 0, err
	}
	fails := 0
	for _, c := range counts {
		fails += c
	}
	return float64(fails) / float64(g.TotalRows()), nil
}

// chunksPerBank splits each bank's row scan so a handful of banks still
// feeds many workers.
const chunksPerBank = 8

// chunkBounds returns the [lo, hi) row range of chunk c.
func chunkBounds(rows, c int) (int, int) {
	lo := c * rows / chunksPerBank
	hi := (c + 1) * rows / chunksPerBank
	return lo, hi
}
