package core

import (
	"fmt"

	"memcon/internal/dram"
	"memcon/internal/trace"
)

// Read-aware refresh elimination — the paper's footnote 3: "MEMCON can
// be further optimized by eliminating testing if the row gets read
// frequently enough such that it does not need refresh" (left as future
// work there; implemented here as an analysis over read traces).
//
// Every row access — reads included — fully recharges the row's cells,
// so a scheduled refresh is redundant when the row was read within the
// preceding refresh window. ReadSkipAnalysis quantifies how many
// refresh operations a read-aware controller could skip for a given
// read trace and refresh interval.

// ReadSkipReport summarizes the analysis.
type ReadSkipReport struct {
	// Scheduled is the number of refresh operations a fixed-rate policy
	// would issue to the traced pages over the trace duration.
	Scheduled float64
	// Skipped is how many of those a read-aware controller elides
	// because a read recharged the row within the preceding window.
	Skipped float64
	// PagesWithReads is the number of pages that had any read.
	PagesWithReads int
}

// SkipFraction returns the fraction of scheduled refreshes eliminated.
func (r ReadSkipReport) SkipFraction() float64 {
	if r.Scheduled <= 0 {
		return 0
	}
	return r.Skipped / r.Scheduled
}

// ReadSkipAnalysis computes the report for a read trace (a trace.Trace
// whose events are READ accesses) at the given refresh interval. Only
// traced pages are counted; each page is charged duration/interval
// scheduled refreshes, and the refresh at the end of window k is
// skipped when the page was read inside window k. The trailing partial
// window is charged only its fraction of a refresh, so a read there
// skips that fraction: a page never skips more than it is scheduled.
func ReadSkipAnalysis(reads *trace.Trace, interval dram.Nanoseconds) (ReadSkipReport, error) {
	if interval <= 0 {
		return ReadSkipReport{}, fmt.Errorf("core: refresh interval must be positive, got %d", interval)
	}
	if err := reads.Validate(); err != nil {
		return ReadSkipReport{}, fmt.Errorf("core: invalid read trace: %w", err)
	}
	intervalUs := trace.Microseconds(interval / dram.Microsecond)
	if intervalUs <= 0 {
		return ReadSkipReport{}, fmt.Errorf("core: interval %d below trace resolution", interval)
	}
	var rep ReadSkipReport
	windowsPerPage := float64(reads.Duration) / float64(intervalUs)
	// Window full is the trailing partial one (no read lies past
	// Duration). Its share is exact by Sterbenz's lemma, so a page read
	// in every window skips exactly windowsPerPage.
	full := reads.Duration / intervalUs
	trailing := windowsPerPage - float64(full)
	// Count the distinct (page, window) pairs with a read in one pass:
	// next holds 1 + each page's last read window, 0 before its first.
	next := make(map[uint32]trace.Microseconds)
	var pairs, inTrailing int
	for _, ev := range reads.Events {
		w := ev.At / intervalUs
		switch next[ev.Page] {
		case w + 1:
			continue
		case 0:
			rep.PagesWithReads++
			rep.Scheduled += windowsPerPage
		}
		next[ev.Page] = w + 1
		pairs++
		if w == full {
			inTrailing++
		}
	}
	rep.Skipped = float64(pairs-inTrailing) + float64(inTrailing)*trailing
	return rep, nil
}

// CombinedSavings composes MEMCON's refresh reduction with read-skip on
// top: MEMCON moves rows between HI/LO-REF; a read-aware controller then
// skips the remaining refreshes whose windows contained reads. The
// result approximates the total reduction assuming reads are spread the
// way the read trace says, independent of the rows' refresh state.
func CombinedSavings(memcon Report, readSkip ReadSkipReport) float64 {
	base := memcon.RefreshReduction()
	residual := 1 - base
	return base + residual*readSkip.SkipFraction()
}
