// Package dram models the DRAM device that MEMCON operates on: module
// geometry (rank/chip/bank/row/column), DDR3-1600 timing parameters,
// vendor-internal address scrambling and redundant-column remapping, and
// the per-row stored content with charge state. The model is
// bit-accurate for content and nanosecond-granular for timing.
//
// Two properties of real chips that make system-level detection of
// data-dependent failures hard (paper §2) are modelled faithfully:
//
//   - Address scrambling: consecutive system row/column addresses do not
//     map to physically adjacent cells; the permutation is per-chip and
//     not exposed outside this package's physical view.
//   - Column remapping: columns found faulty at manufacturing time are
//     remapped to redundant columns at the edge of the array, so a
//     remapped cell's physical neighbours live in the redundant region.
package dram

import "fmt"

// Nanoseconds is the time unit for all DRAM timing in this package.
type Nanoseconds = int64

// Common time conversion helpers.
const (
	Microsecond Nanoseconds = 1000
	Millisecond Nanoseconds = 1000 * 1000
	Second      Nanoseconds = 1000 * 1000 * 1000
)

// Timing holds the DRAM timing parameters used by the cost model and the
// memory-controller simulator. Values follow the paper's appendix, which
// uses DDR3-1600 parameters chosen such that
//
//	refresh cost        = tRAS + tRP                  = 39 ns
//	Read-and-Compare    = 2*(tRCD + 128*tCCD + tRP)   = 1068 ns
//	Copy-and-Compare    = 3*(tRCD + 128*tCCD + tRP)   = 1602 ns
type Timing struct {
	// TCK is the clock period (DDR3-1600: 800 MHz command clock, 1.25 ns).
	// Expressed in picoseconds because it is sub-nanosecond.
	TCKPicos int64
	// TRCD is the ACT-to-READ/WRITE delay.
	TRCD Nanoseconds
	// TRP is the precharge latency.
	TRP Nanoseconds
	// TRAS is the minimum row-active time.
	TRAS Nanoseconds
	// TCCD is the column-to-column (burst) delay for one cache block.
	TCCD Nanoseconds
	// CL is the CAS (read) latency.
	CL Nanoseconds
	// CWL is the CAS write latency.
	CWL Nanoseconds
	// BlocksPerRow is the number of cache blocks in one row (8 KB row of
	// 64 B blocks = 128).
	BlocksPerRow int
}

// DDR31600 returns the DDR3-1600 timing parameter set used throughout the
// paper's evaluation.
func DDR31600() Timing {
	return Timing{
		TCKPicos:     1250,
		TRCD:         11,
		TRP:          11,
		TRAS:         28,
		TCCD:         4,
		CL:           11,
		CWL:          8,
		BlocksPerRow: 128,
	}
}

// RowCycle returns the latency of activating a row, streaming all of its
// cache blocks through the memory controller, and precharging:
// tRCD + BlocksPerRow*tCCD + tRP. This is the per-row-read building block
// of the appendix cost model (534 ns for DDR3-1600).
func (t Timing) RowCycle() Nanoseconds {
	return t.TRCD + Nanoseconds(t.BlocksPerRow)*t.TCCD + t.TRP
}

// RefreshCost returns the latency of refreshing one row: tRAS + tRP
// (39 ns for DDR3-1600).
func (t Timing) RefreshCost() Nanoseconds { return t.TRAS + t.TRP }

// Density identifies a DRAM chip density. Refresh cost (tRFC) grows with
// density, which is why MEMCON's benefit grows with chip capacity
// (Fig. 15).
type Density int

// Supported chip densities.
const (
	Density4Gb Density = iota
	Density8Gb
	Density16Gb
	Density32Gb
)

// String returns the conventional name of the density.
func (d Density) String() string {
	switch d {
	case Density4Gb:
		return "4Gb"
	case Density8Gb:
		return "8Gb"
	case Density16Gb:
		return "16Gb"
	case Density32Gb:
		return "32Gb"
	default:
		return fmt.Sprintf("Density(%d)", int(d))
	}
}

// TRFC returns the refresh-cycle time of an all-bank REF command for the
// density. The 8/16/32 Gb values match the MEMCON system configuration
// (Table 2); 4 Gb uses the DDR3 baseline 350 ns.
func (d Density) TRFC() Nanoseconds {
	switch d {
	case Density4Gb:
		return 350
	case Density8Gb:
		return 530
	case Density16Gb:
		return 890
	case Density32Gb:
		return 1600
	default:
		return 350
	}
}

// TREFI returns the average interval between REF commands required to
// refresh the whole device within refreshWindow. JEDEC divides the device
// into 8192 refresh groups, so a 64 ms window yields the standard 7.8 µs
// and the paper's aggressive 16 ms window yields 1.95 µs.
func TREFI(refreshWindow Nanoseconds) Nanoseconds {
	return refreshWindow / 8192
}

// Standard refresh windows used across the evaluation.
const (
	RefreshWindowAggressive Nanoseconds = 16 * Millisecond  // HI-REF
	RefreshWindowDefault                = 64 * Millisecond  // LO-REF
	RefreshWindow128                    = 128 * Millisecond // extended LO-REF
	RefreshWindow256                    = 256 * Millisecond // extended LO-REF
)
