package workload

import (
	"fmt"
	"math/rand"

	"memcon/internal/dram"
)

// ContentSpec describes the memory-content characteristics of one SPEC
// CPU2006 benchmark, the knobs that determine how many data-dependent
// failures its in-memory image excites (Fig. 4). The knobs are
// content-class abstractions:
//
//   - ZeroRowFraction: fraction of rows that are entirely zero
//     (untouched heap, zeroed pages). Solid regions stress cells whose
//     orientation stores the complement as charge.
//   - OnesDensity: probability that a bit in a non-zero region is 1;
//     pointer- and integer-heavy benchmarks sit well below 0.5, media
//     and compression benchmarks near 0.5 (high entropy).
//   - WordSparsity: fraction of 64-bit words in non-zero rows that are
//     zero anyway (sparse structures).
type ContentSpec struct {
	Name            string
	ZeroRowFraction float64
	OnesDensity     float64
	WordSparsity    float64
}

// SPECContents returns the 20 SPEC CPU2006 benchmark content generators
// in the order Fig. 4 plots them. The parameters span the content
// aggressiveness range so that failing-row fractions spread between the
// paper's 0.38% and 5.6% extremes.
func SPECContents() []ContentSpec {
	return []ContentSpec{
		{Name: "perl", ZeroRowFraction: 0.30, OnesDensity: 0.34, WordSparsity: 0.35},
		{Name: "bzip", ZeroRowFraction: 0.05, OnesDensity: 0.50, WordSparsity: 0.05},
		{Name: "gcc", ZeroRowFraction: 0.25, OnesDensity: 0.36, WordSparsity: 0.30},
		{Name: "mcf", ZeroRowFraction: 0.15, OnesDensity: 0.42, WordSparsity: 0.45},
		{Name: "zeusmp", ZeroRowFraction: 0.10, OnesDensity: 0.46, WordSparsity: 0.15},
		{Name: "cactus", ZeroRowFraction: 0.12, OnesDensity: 0.45, WordSparsity: 0.20},
		{Name: "gobmk", ZeroRowFraction: 0.35, OnesDensity: 0.30, WordSparsity: 0.40},
		{Name: "namd", ZeroRowFraction: 0.08, OnesDensity: 0.47, WordSparsity: 0.10},
		{Name: "soplex", ZeroRowFraction: 0.20, OnesDensity: 0.40, WordSparsity: 0.35},
		{Name: "dealII", ZeroRowFraction: 0.18, OnesDensity: 0.41, WordSparsity: 0.30},
		{Name: "calculix", ZeroRowFraction: 0.15, OnesDensity: 0.44, WordSparsity: 0.20},
		{Name: "hmmer", ZeroRowFraction: 0.10, OnesDensity: 0.48, WordSparsity: 0.10},
		{Name: "libquant", ZeroRowFraction: 0.55, OnesDensity: 0.20, WordSparsity: 0.60},
		{Name: "gems", ZeroRowFraction: 0.12, OnesDensity: 0.45, WordSparsity: 0.18},
		{Name: "h264ref", ZeroRowFraction: 0.08, OnesDensity: 0.49, WordSparsity: 0.08},
		{Name: "tonto", ZeroRowFraction: 0.22, OnesDensity: 0.38, WordSparsity: 0.28},
		{Name: "omnetpp", ZeroRowFraction: 0.28, OnesDensity: 0.33, WordSparsity: 0.42},
		{Name: "lbm", ZeroRowFraction: 0.06, OnesDensity: 0.49, WordSparsity: 0.06},
		{Name: "xalanc", ZeroRowFraction: 0.40, OnesDensity: 0.27, WordSparsity: 0.50},
		{Name: "astar", ZeroRowFraction: 0.45, OnesDensity: 0.24, WordSparsity: 0.55},
	}
}

// ContentByName returns the content spec for a benchmark.
func ContentByName(name string) (ContentSpec, error) {
	for _, c := range SPECContents() {
		if c.Name == name {
			return c, nil
		}
	}
	return ContentSpec{}, fmt.Errorf("workload: unknown SPEC benchmark %q", name)
}

// Image synthesizes a memory-content image of the given number of rows,
// each with cols cells (cols must be a multiple of 64). phase selects
// the execution phase (the paper dumps content every 100M instructions);
// different phases yield different images of the same statistical class.
// The result is deterministic in (spec, rows, cols, phase, seed). Its
// rows are consecutive windows of one backing slab.
func (c ContentSpec) Image(rows, cols int, phase int, seed int64) []dram.Row {
	rng := rand.New(rand.NewSource(seed ^ int64(phase)*0x9E3779B97F4A7))
	words := cols / 64
	slab := make([]uint64, rows*words)
	img := make([]dram.Row, rows)
	for r := range img {
		row := dram.Row(slab[r*words : (r+1)*words : (r+1)*words])
		if rng.Float64() >= c.ZeroRowFraction {
			for w := range row {
				if rng.Float64() < c.WordSparsity {
					continue // sparse zero word
				}
				row[w] = biasedWord(rng, c.OnesDensity)
			}
		}
		img[r] = row
	}
	return img
}

// biasedWord draws a 64-bit word whose bits are 1 with probability p.
func biasedWord(rng *rand.Rand, p float64) uint64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return ^uint64(0)
	case p == 0.5:
		return rng.Uint64()
	}
	// Compose from uniform words: AND reduces density by half, OR
	// increases it. Build a 4-step approximation of p.
	w := rng.Uint64()
	density := 0.5
	for i := 0; i < 4; i++ {
		if density > p {
			w &= rng.Uint64()
			density /= 2
		} else {
			w |= rng.Uint64() & rng.Uint64()
			density += (1 - density) / 4
		}
	}
	return w
}

// CoreParams models one benchmark for the performance simulator: how
// memory-intensive it is and how its accesses behave at the DRAM.
type CoreParams struct {
	Name string
	// MPKI is misses (DRAM accesses) per kilo-instruction.
	MPKI float64
	// BaseIPC is the IPC the core would achieve with a perfect memory
	// system.
	BaseIPC float64
	// RowHitRate is the fraction of accesses that hit the open row.
	RowHitRate float64
	// WriteFraction is the fraction of accesses that are writes.
	WriteFraction float64
}

// SimBenchmarks returns the SPEC CPU2006 + TPC benchmark models used to
// build the 30 multiprogrammed mixes of the performance evaluation
// (Fig. 15/16, Table 3). MPKI values follow the well-known
// memory-intensity ordering of SPEC CPU2006 plus two TPC server
// workloads.
func SimBenchmarks() []CoreParams {
	return []CoreParams{
		{Name: "perl", MPKI: 0.8, BaseIPC: 2.2, RowHitRate: 0.75, WriteFraction: 0.28},
		{Name: "bzip", MPKI: 3.5, BaseIPC: 1.8, RowHitRate: 0.62, WriteFraction: 0.32},
		{Name: "gcc", MPKI: 5.0, BaseIPC: 1.6, RowHitRate: 0.58, WriteFraction: 0.30},
		{Name: "mcf", MPKI: 36.0, BaseIPC: 0.9, RowHitRate: 0.30, WriteFraction: 0.24},
		{Name: "milc", MPKI: 18.0, BaseIPC: 1.1, RowHitRate: 0.45, WriteFraction: 0.26},
		{Name: "zeusmp", MPKI: 6.0, BaseIPC: 1.5, RowHitRate: 0.60, WriteFraction: 0.29},
		{Name: "cactus", MPKI: 5.5, BaseIPC: 1.5, RowHitRate: 0.62, WriteFraction: 0.27},
		{Name: "leslie3d", MPKI: 14.0, BaseIPC: 1.2, RowHitRate: 0.55, WriteFraction: 0.25},
		{Name: "gobmk", MPKI: 1.2, BaseIPC: 2.0, RowHitRate: 0.70, WriteFraction: 0.26},
		{Name: "soplex", MPKI: 22.0, BaseIPC: 1.0, RowHitRate: 0.40, WriteFraction: 0.23},
		{Name: "hmmer", MPKI: 1.5, BaseIPC: 2.1, RowHitRate: 0.72, WriteFraction: 0.30},
		{Name: "sjeng", MPKI: 0.9, BaseIPC: 2.0, RowHitRate: 0.68, WriteFraction: 0.27},
		{Name: "gems", MPKI: 25.0, BaseIPC: 1.0, RowHitRate: 0.42, WriteFraction: 0.24},
		{Name: "libquant", MPKI: 28.0, BaseIPC: 1.1, RowHitRate: 0.85, WriteFraction: 0.20},
		{Name: "h264ref", MPKI: 1.8, BaseIPC: 2.0, RowHitRate: 0.70, WriteFraction: 0.31},
		{Name: "lbm", MPKI: 32.0, BaseIPC: 1.0, RowHitRate: 0.50, WriteFraction: 0.40},
		{Name: "omnetpp", MPKI: 21.0, BaseIPC: 1.0, RowHitRate: 0.35, WriteFraction: 0.25},
		{Name: "astar", MPKI: 9.0, BaseIPC: 1.3, RowHitRate: 0.50, WriteFraction: 0.26},
		{Name: "xalanc", MPKI: 12.0, BaseIPC: 1.2, RowHitRate: 0.48, WriteFraction: 0.27},
		{Name: "wrf", MPKI: 7.0, BaseIPC: 1.4, RowHitRate: 0.58, WriteFraction: 0.28},
		{Name: "tpcc", MPKI: 16.0, BaseIPC: 1.1, RowHitRate: 0.38, WriteFraction: 0.35},
		{Name: "tpch", MPKI: 13.0, BaseIPC: 1.2, RowHitRate: 0.44, WriteFraction: 0.22},
	}
}

// Mixes builds n multiprogrammed workload mixes of k benchmarks each by
// deterministic random selection, the way the paper combines 4
// randomly-selected applications into 30 mixes.
func Mixes(n, k int, seed int64) [][]CoreParams {
	bench := SimBenchmarks()
	rng := rand.New(rand.NewSource(seed))
	mixes := make([][]CoreParams, n)
	for i := range mixes {
		mix := make([]CoreParams, k)
		for j := range mix {
			mix[j] = bench[rng.Intn(len(bench))]
		}
		mixes[i] = mix
	}
	return mixes
}
