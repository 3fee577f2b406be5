// Package costmodel prices the DRAM operations MEMCON trades against
// each other — a refresh, an online test and a RowHammer mitigation
// refresh — in latency (ns) and in energy (nJ), and solves the paper's
// cost-benefit crossover (§3.3, Fig. 6, and the appendix). In latency,
// the cost of a configuration is the accumulated per-row time it spends
// on refresh and testing:
//
//   - HI-REF refreshes a row every HiRefInterval (16 ms) at 39 ns per
//     refresh (tRAS+tRP).
//   - MEMCON pays a one-time testing latency (1068 ns Read-and-Compare,
//     1602 ns Copy-and-Compare, less with footnote 6's in-DRAM
//     acceleration) and then refreshes at the LO-REF interval
//     (64/128/256 ms).
//
// MinWriteInterval is the earliest time at which MEMCON's accumulated
// cost drops below HI-REF's — the minimum interval between writes to a
// row that amortizes a test. EnergyMinWriteInterval solves the same
// crossover with both prices in nanojoules.
package costmodel

import (
	"fmt"

	"memcon/internal/dram"
)

// TestMode selects how a test buffers and compares the in-test row's
// content (§3.3 and footnote 6).
type TestMode int

const (
	// ReadCompare buffers the row inside the memory controller: two full
	// row reads (before and after the idle test window).
	ReadCompare TestMode = iota
	// CopyCompare copies the row into a reserved DRAM region and keeps
	// only ECC in the controller: two full row reads plus one row write.
	CopyCompare
	// RowCloneCopy is Copy-and-Compare with the copy performed inside
	// DRAM (RowClone, LISA): the read+write pair collapses into two
	// back-to-back activations; the post-test read-back still crosses
	// the channel (one row cycle).
	RowCloneCopy
	// InDRAMCompare additionally compares inside the DRAM or the logic
	// layer of 3D-stacked memory: the test is the in-DRAM copy plus an
	// in-DRAM comparison, each about two activations.
	InDRAMCompare
)

// String returns the paper's name for the mode.
func (m TestMode) String() string {
	switch m {
	case ReadCompare:
		return "Read and Compare"
	case CopyCompare:
		return "Copy and Compare"
	case RowCloneCopy:
		return "RowClone Copy and Compare"
	case InDRAMCompare:
		return "In-DRAM Copy and Compare"
	default:
		return fmt.Sprintf("TestMode(%d)", int(m))
	}
}

// RowCycles returns the full row cycles (dram.Timing.RowCycle each) a
// test in mode m moves through the channel: 2 for Read-and-Compare and
// 3 for Copy-and-Compare. The accelerated modes keep the row inside
// DRAM, so they have no row-cycle count and RowCycles returns 0.
func (m TestMode) RowCycles() int {
	switch m {
	case ReadCompare:
		return 2
	case CopyCompare:
		return 3
	default:
		return 0
	}
}

// Config parameterizes the cost model.
type Config struct {
	// Timing supplies the DRAM latency building blocks.
	Timing dram.Timing
	// HiRefInterval is the aggressive (baseline) refresh interval.
	HiRefInterval dram.Nanoseconds
	// LoRefInterval is the relaxed refresh interval used after a row
	// tests clean.
	LoRefInterval dram.Nanoseconds
	// Mode selects the test mode.
	Mode TestMode
}

// DefaultConfig returns the paper's primary configuration: DDR3-1600,
// HI-REF 16 ms, LO-REF 64 ms, Read-and-Compare.
func DefaultConfig() Config {
	return Config{
		Timing:        dram.DDR31600(),
		HiRefInterval: dram.RefreshWindowAggressive,
		LoRefInterval: dram.RefreshWindowDefault,
		Mode:          ReadCompare,
	}
}

// Validate reports an error for unusable configurations.
func (c Config) Validate() error {
	if c.HiRefInterval <= 0 {
		return fmt.Errorf("costmodel: HI-REF interval must be positive, got %d", c.HiRefInterval)
	}
	if c.LoRefInterval <= c.HiRefInterval {
		return fmt.Errorf("costmodel: LO-REF interval (%d) must exceed HI-REF interval (%d)", c.LoRefInterval, c.HiRefInterval)
	}
	if c.Mode < ReadCompare || c.Mode > InDRAMCompare {
		return fmt.Errorf("costmodel: unknown test mode %d", c.Mode)
	}
	return nil
}

// TestCost returns the one-time latency of a test in the configured
// mode: its row cycles for the two channel modes (1068 and 1602 ns for
// DDR3-1600), and for the accelerated ones an in-DRAM operation of two
// back-to-back activations then a precharge in place of each
// accelerated step.
func (c Config) TestCost() dram.Nanoseconds {
	inDRAMOp := 2*c.Timing.TRAS + c.Timing.TRP
	switch c.Mode {
	case RowCloneCopy:
		return inDRAMOp + c.Timing.RowCycle()
	case InDRAMCompare:
		return 2 * inDRAMOp
	default:
		return dram.Nanoseconds(c.Mode.RowCycles()) * c.Timing.RowCycle()
	}
}

// HiRefCost returns HI-REF's accumulated per-row refresh latency over
// elapsed time t: one refresh (39 ns) per elapsed HiRefInterval.
func (c Config) HiRefCost(t dram.Nanoseconds) dram.Nanoseconds {
	if t < 0 {
		return 0
	}
	return (t / c.HiRefInterval) * c.Timing.RefreshCost()
}

// MemconCost returns MEMCON's accumulated per-row latency over elapsed
// time t: the one-time test cost up front, then one refresh per elapsed
// LoRefInterval starting at 2*LoRefInterval. The first LO-REF window IS
// the test window — the row is deliberately kept idle through it and the
// test's final read-back recharges the row — so the first scheduled
// LO-REF refresh lands one window later. This reproduces the paper's
// Fig. 6 crossovers exactly (560/864 ms at 64 ms LO-REF, 480/448 ms at
// 128/256 ms).
func (c Config) MemconCost(t dram.Nanoseconds) dram.Nanoseconds {
	if t < 0 {
		return 0
	}
	return c.TestCost() + c.loRefRefreshes(t)*c.Timing.RefreshCost()
}

// loRefRefreshes returns the LO-REF refreshes a tested row has had by
// time t >= 0: none through the test window, then one per window.
func (c Config) loRefRefreshes(t dram.Nanoseconds) dram.Nanoseconds {
	return max(t/c.LoRefInterval-1, 0)
}

// MitigationCost returns the accumulated latency of ops extra
// neighbour-refresh operations issued by a RowHammer mitigation policy:
// each is one per-row refresh (the same 39 ns the refresh terms above
// price), which is how mitigation overhead enters the shared currency of
// the cost model.
func (c Config) MitigationCost(ops int64) dram.Nanoseconds {
	if ops <= 0 {
		return 0
	}
	return dram.Nanoseconds(ops) * c.Timing.RefreshCost()
}

// CurvePoint is one sample of the Fig. 6 accumulated-cost curves.
type CurvePoint struct {
	Time   dram.Nanoseconds
	HiRef  dram.Nanoseconds
	Memcon dram.Nanoseconds
}

// Curve samples both accumulated-cost curves from 0 to horizon at the
// given step, reproducing Fig. 6's series.
func (c Config) Curve(horizon, step dram.Nanoseconds) []CurvePoint {
	if step <= 0 {
		step = c.HiRefInterval
	}
	var pts []CurvePoint
	for t := dram.Nanoseconds(0); t <= horizon; t += step {
		pts = append(pts, CurvePoint{Time: t, HiRef: c.HiRefCost(t), Memcon: c.MemconCost(t)})
	}
	return pts
}

// MinWriteInterval returns the smallest time t (quantized to the HI-REF
// interval, the natural resolution of the crossover) at which MEMCON's
// accumulated latency is at or below HI-REF's. This is the minimum
// interval between two writes to a row that amortizes the cost of
// testing.
func (c Config) MinWriteInterval() (dram.Nanoseconds, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	return c.crossover(float64(c.TestCost()), float64(c.Timing.RefreshCost()))
}

// crossover returns the smallest multiple t of the HI-REF interval at
// which a test priced test, plus a LO-REF row's refreshes priced
// refresh each, costs at most HI-REF's refreshes by t. Both prices are
// in one currency (ns or nJ). Latency prices are small integers, which
// float64 holds exactly, so the comparison is the integer one. Per
// HI-REF interval the gap closes by at least refresh*(1 - Hi/Lo), so a
// crossover, when there is one, is found by stepping; the limit (~73
// minutes) lies far beyond any real one.
func (c Config) crossover(test, refresh float64) (dram.Nanoseconds, error) {
	const limit = dram.Nanoseconds(1) << 42
	for t := c.HiRefInterval; t <= limit; t += c.HiRefInterval {
		if test+float64(c.loRefRefreshes(t))*refresh <= float64(t/c.HiRefInterval)*refresh {
			return t, nil
		}
	}
	return 0, fmt.Errorf("costmodel: no crossover found below %d ns", limit)
}

// CopyCompareReservedRows computes the storage overhead of the
// Copy-and-Compare mode: reserving rowsPerBank rows in each of banks
// banks out of totalRows rows, as a fraction of DRAM capacity. The
// appendix example (512 rows/bank, 8 banks, 262144 total rows) yields
// 1.5625%.
func CopyCompareReservedRows(rowsPerBank, banks, totalRows int) float64 {
	if totalRows <= 0 {
		return 0
	}
	return float64(rowsPerBank*banks) / float64(totalRows)
}
