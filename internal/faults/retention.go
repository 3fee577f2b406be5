// The retention mechanism's query kernel: everything that evaluates
// which cells leak past their effective retention under current content
// and a row's idle time. The population/build side (sampling and
// packed-kernel compilation) stays in faults.go; this file is the
// read-only query surface the Mechanism interface fronts.

package faults

import (
	"math/bits"
	"runtime"

	"memcon/internal/dram"
)

// charge returns the logical bit that charges the cells of the row ni
// describes, and the XOR mask that turns the row's raw words into
// charged-cell masks (bit set = the cell holds charge).
func (ni *rowNeigh) charge() (cb, candXor uint64) {
	if ni.flags&neighSelfTrue != 0 {
		return 1, 0
	}
	return 0, ^uint64(0) // anti-cell rows: charge is a stored 0
}

// adjRows is the content of a row's two physically adjacent rows, read
// word by word as discharge masks (bit set = that wordline neighbour
// aggresses). A missing neighbour reads as all-zero; its coupling
// weight is 0, so the value is never observed.
type adjRows struct {
	up, dn     dram.Row
	xorU, xorD uint64
}

// adjacentRows resolves the physically adjacent rows of the bank row
// ni describes.
func (m *Model) adjacentRows(mod *dram.Module, bank int, ni *rowNeigh) adjRows {
	base := bank * m.geom.RowsPerBank
	var adj adjRows
	if ni.upSys >= 0 {
		adj.up = mod.RowAt(base + int(ni.upSys))
		if ni.flags&neighUpTrue != 0 {
			adj.xorU = ^uint64(0)
		}
	}
	if ni.dnSys >= 0 {
		adj.dn = mod.RowAt(base + int(ni.dnSys))
		if ni.flags&neighDnTrue != 0 {
			adj.xorD = ^uint64(0)
		}
	}
	return adj
}

// discharged returns word w of both adjacent rows as discharge masks.
func (adj *adjRows) discharged(w int32) (du, dd uint64) {
	if adj.up != nil {
		du = adj.up[w] ^ adj.xorU
	}
	if adj.dn != nil {
		dd = adj.dn[w] ^ adj.xorD
	}
	return du, dd
}

// stress is the interference stress on cell p under the current
// content: the coupling weights of its discharged neighbours, summed in
// the fixed left, right, up, down order. row is the cell's own system
// row and cb the logical bit that charges it; bit 0 of du/dd is set
// when the up/down neighbour is discharged (the adjacent rows'
// discharge masks shifted down to the cell's bit). Bitline neighbours
// on unmapped columns contribute their constant term; neighbours
// outside the array have weight 0 (the weight is wasted, matching edge
// cells being less exposed). Small enough to inline into the kernel.
func (p *packedCell) stress(row dram.Row, cb, du, dd uint64) float64 {
	s := p.lConstW // 0 unless the left neighbour is unmapped
	if p.lCol >= 0 && row[p.lCol>>6]>>(p.lCol&63)&1 != cb {
		s = p.wL
	}
	if p.rCol < 0 {
		s += p.rConstW
	} else if row[p.rCol>>6]>>(p.rCol&63)&1 != cb {
		s += p.wR
	}
	s += p.wU * float64(du&1)
	s += p.wD * float64(dd&1)
	return s
}

// FailingCells returns the system-column indices of cells in the
// addressed (system-space) row that fail after the row has been idle for
// the given time, under the module's current content. The module content
// is not modified; callers decide whether to commit the flips.
func (m *Model) FailingCells(mod *dram.Module, a dram.RowAddress, idle dram.Nanoseconds) []int {
	return m.AppendFailingCells(nil, mod, a, idle)
}

// AppendFailingCells is FailingCells appending into dst, so steady-state
// callers (the online-test and audit hot paths) can reuse one buffer
// instead of allocating per query.
//
// This is the bit-parallel kernel: per 64-bit row word, one XOR+AND
// classifies which weak cells currently hold charge, and the wordline
// neighbours' discharge states come from the SAME word of the two
// physically adjacent rows (the column swizzle is row-independent, so
// an up/down neighbour shares the victim's system column). Only
// charged candidates that clear their worst-case bound pay the
// per-cell stress sum. Failing cells are reported in physical-column
// order.
func (m *Model) AppendFailingCells(dst []int, mod *dram.Module, a dram.RowAddress, idle dram.Nanoseconds) []int {
	bf := m.banks[a.Bank]
	if idle <= bf.minWorstBySysRow[a.Row] {
		return dst // no cell of this row fails even under worst-case stress
	}
	gl, gh := bf.groupOff[a.Row], bf.groupOff[a.Row+1]
	if gl == gh {
		return dst
	}
	ni := &bf.neigh[a.Row]
	row := mod.RowRef(a)
	cb, candXor := ni.charge()
	// The physically adjacent rows resolve lazily, on the first charged
	// candidate that also clears its worst-case retention bound: rows
	// whose candidates all read as discharged or all reject on the
	// bound never touch the two neighbour rows at all, and those
	// scrambled-row loads are the kernel's cache misses.
	var adj adjRows
	adjReady := false
	n0 := len(dst)
	for gi := gl; gi < gh; gi++ {
		g := &bf.groups[gi]
		if idle <= g.minWorst {
			continue // whole word rejected by its retention bound
		}
		cand := (row[g.word] ^ candXor) & g.mask
		if cand == 0 {
			continue // no charged weak cell in this word
		}
		var du, dd uint64
		duddReady := false
		for c := cand; c != 0; c &= c - 1 {
			bit := uint(bits.TrailingZeros64(c))
			lane := bits.OnesCount64(g.mask & (1<<bit - 1))
			p := &bf.packed[int(g.cellBase)+lane]
			if idle <= p.worstRetention {
				continue
			}
			if !duddReady {
				duddReady = true
				if !adjReady {
					adjReady = true
					adj = m.adjacentRows(mod, a.Bank, ni)
				}
				du, dd = adj.discharged(g.word)
			}
			if idle > m.effectiveRetention(p, p.stress(row, cb, du>>bit, dd>>bit)) {
				dst = append(dst, int(p.sysCol))
			}
		}
	}
	// The kernel visits cells in system-column order; restore physical
	// order (an insertion sort: a row rarely fails in more than a few
	// cells).
	tail := dst[n0:]
	for i := 1; i < len(tail); i++ {
		for j := i; j > 0 && m.scr.PhysCol(tail[j]) < m.scr.PhysCol(tail[j-1]); j-- {
			tail[j], tail[j-1] = tail[j-1], tail[j]
		}
	}
	return dst
}

// AppendFailingRows runs the word kernel over entries [lo, hi) of the
// bank's weak-row worklist (WeakRowFloors order) against current
// content at time now. Each failing row appends its failing cells to
// cells, its system row to rows, and the new len(cells) to offs —
// extending the caller's CSR bookkeeping (offs must already hold its
// leading sentinel). Verdicts are exactly AppendFailingCells's, row by
// row; the only addition is a lookahead touch of a future row's hot
// words, which keeps several cache misses in flight where a
// row-at-a-time caller would serialise on each miss in turn.
func (m *Model) AppendFailingRows(mod *dram.Module, bank, lo, hi int, now dram.Nanoseconds, cells []int, rows, offs []int32) ([]int, []int32, []int32) {
	bf := m.banks[bank]
	base := bank * m.geom.RowsPerBank
	// 8 rows ahead ≈ the distance a row's evaluation takes to catch up
	// with an L3-latency load issued now.
	const lookahead = 8
	var pre uint64
	for i := lo; i < hi; i++ {
		if j := i + lookahead; j < hi {
			if r := int(bf.weakRows[j]); mod.IdleAtIndex(base+r, now) > bf.weakFloors[j] {
				g := &bf.groups[bf.groupOff[r]]
				pre += uint64(mod.RowAt(base + r)[g.word])
				pre += uint64(bf.packed[g.cellBase].worstRetention)
				// Touch both neighbour words too: roughly half the
				// rows that pass the floor keep a candidate alive long
				// enough to read them, and their scrambled-row misses
				// are the scan's longest stalls.
				if ni := &bf.neigh[r]; ni.upSys >= 0 {
					pre += uint64(mod.RowAt(base + int(ni.upSys))[g.word])
					if ni.dnSys >= 0 {
						pre += uint64(mod.RowAt(base + int(ni.dnSys))[g.word])
					}
				} else if ni.dnSys >= 0 {
					pre += uint64(mod.RowAt(base + int(ni.dnSys))[g.word])
				}
			}
		}
		r := int(bf.weakRows[i])
		idle := mod.IdleAtIndex(base+r, now)
		if idle <= bf.weakFloors[i] {
			continue
		}
		n0 := len(cells)
		cells = m.AppendFailingCells(cells, mod, dram.RowAddress{Bank: bank, Row: r}, idle)
		if len(cells) > n0 {
			rows = append(rows, int32(r))
			offs = append(offs, int32(len(cells)))
		}
	}
	// The lookahead loads exist only for their cache side effect; keep
	// the compiler from proving them dead.
	runtime.KeepAlive(pre)
	return cells, rows, offs
}

// RowCanFail reports whether the addressed row contains at least one weak
// cell that could fail under SOME data pattern at the given idle time —
// the "ALL FAIL" denominator of Fig. 4. A cell can fail under some
// pattern iff idle > base*(1-MaxStress*maxAchievableStress), where the
// worst pattern charges the victim and discharges every neighbour; that
// bound is precomputed per cell and cached as a system-row-indexed
// minimum, so the query is one comparison with no permutation lookup.
func (m *Model) RowCanFail(a dram.RowAddress, idle dram.Nanoseconds) bool {
	return idle > m.banks[a.Bank].minWorstBySysRow[a.Row]
}

// WeakRowFloors returns, in ascending system-row order, the rows of the
// bank that hold at least one weak cell, together with each row's
// RowCanFail floor (the idle time a query must exceed for any cell of
// the row to fail under any pattern). A full-array scan that walks this
// dense worklist instead of probing all RowsPerBank rows visits only
// the ~WeakCellFraction*rows candidates that can matter; rows absent
// from the list never fail at any idle time. Both slices are owned by
// the model and must not be modified.
func (m *Model) WeakRowFloors(bank int) ([]int32, []dram.Nanoseconds) {
	bf := m.banks[bank]
	return bf.weakRows, bf.weakFloors
}
