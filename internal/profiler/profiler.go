// Package profiler implements the manufacturing-style retention
// profiling pipeline that profile-based refresh schemes (RAIDR, AVATAR,
// REAPER — the paper's §6.3 baselines) depend on: fill the module with
// test patterns, hold it idle at an extended refresh interval, read
// back, and accumulate the set of rows that ever failed. Repeating over
// rounds and patterns, optionally at a longer-than-target idle time
// (guardbanding, as REAPER advocates), approaches — but never provably
// reaches — the set of rows that can fail with ANY content.
//
// This package exists to make the paper's central argument concrete and
// measurable: because the profiler only sees system addresses while
// failures are wired to scrambled physical neighbourhoods, a
// pattern-based profile can MISS rows that program content later fails
// (escapes), which is exactly why MEMCON tests the actual content
// instead.
package profiler

import (
	"fmt"
	"math"

	"memcon/internal/dram"
	"memcon/internal/faults"
	"memcon/internal/softmc"
)

// Config parameterizes a profiling campaign over the 8 classic
// manufacturing patterns.
type Config struct {
	// Rounds repeats the whole suite to catch intermittent failures.
	Rounds int
	// TargetIdle is the retention window the profile must guarantee
	// (e.g. the LO-REF interval the profiled rows will NOT get).
	TargetIdle dram.Nanoseconds
	// Guardband scales the profiling idle time beyond the target
	// (REAPER: profile at aggressive conditions). 1.0 profiles exactly
	// at the target.
	Guardband float64
}

// DefaultConfig profiles with the classic patterns, 2 rounds, and a
// 25% guardband over the 64 ms LO-REF window.
func DefaultConfig() Config {
	return Config{
		Rounds:     2,
		TargetIdle: dram.RefreshWindowDefault,
		Guardband:  1.25,
	}
}

// Validate reports an error for unusable configurations.
func (c Config) Validate() error {
	if c.Rounds < 1 {
		return fmt.Errorf("profiler: rounds must be >= 1, got %d", c.Rounds)
	}
	if c.TargetIdle <= 0 {
		return fmt.Errorf("profiler: target idle must be positive, got %d", c.TargetIdle)
	}
	if !(c.Guardband >= 1) {
		return fmt.Errorf("profiler: guardband must be >= 1, got %v", c.Guardband)
	}
	if float64(c.TargetIdle)*c.Guardband >= math.MaxInt64 {
		return fmt.Errorf("profiler: guardband %v overflows the profiling idle time (target %d ns)", c.Guardband, c.TargetIdle)
	}
	return nil
}

// Profile is the outcome of a campaign: the set of rows observed to
// fail under at least one (pattern, round).
type Profile struct {
	// WeakRows maps row index (Geometry.RowIndex) to the number of
	// (pattern, round) runs in which it failed.
	WeakRows map[int]int
	// Runs is the number of (pattern, round) runs executed.
	Runs int
	// Geometry of the profiled module.
	Geometry dram.Geometry
	// IdleUsed is the profiling idle time after guardbanding.
	IdleUsed dram.Nanoseconds
}

// WeakRowFraction returns the profiled weak-row fraction — the RAIDR
// input parameter.
func (p *Profile) WeakRowFraction() float64 {
	return float64(len(p.WeakRows)) / float64(p.Geometry.TotalRows())
}

// Contains reports whether the profile flagged the row.
func (p *Profile) Contains(a dram.RowAddress) bool {
	_, ok := p.WeakRows[p.Geometry.RowIndex(a)]
	return ok
}

// Run executes the profiling campaign on a chip.
func Run(tester *softmc.Tester, geom dram.Geometry, cfg Config) (*Profile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	patterns := softmc.StandardPatterns(8)
	idle := dram.Nanoseconds(float64(cfg.TargetIdle) * cfg.Guardband)
	p := &Profile{
		WeakRows: make(map[int]int),
		Geometry: geom,
		IdleUsed: idle,
	}
	for round := 0; round < cfg.Rounds; round++ {
		for _, pat := range patterns {
			fails, err := tester.RunPattern(pat, idle)
			if err != nil {
				return nil, fmt.Errorf("profiler: round %d pattern %s: %w", round, pat.Name, err)
			}
			for _, f := range fails {
				p.WeakRows[geom.RowIndex(f.Addr)]++
			}
			p.Runs++
		}
	}
	return p, nil
}

// EscapeReport quantifies profile incompleteness against ground truth —
// the paper's argument that system-level pattern profiling cannot be
// exhaustive.
type EscapeReport struct {
	// TrueWeakRows is the number of rows that CAN fail with some
	// content at the target idle (silicon ground truth).
	TrueWeakRows int
	// ProfiledRows is the number of rows the campaign flagged.
	ProfiledRows int
	// Escapes is the number of truly weak rows the profile missed.
	Escapes int
	// FalseAlarms is the number of flagged rows that are not truly weak
	// at the target idle (over-profiling from the guardband).
	FalseAlarms int
}

// EscapeRate returns the fraction of truly weak rows missed.
func (r EscapeReport) EscapeRate() float64 {
	if r.TrueWeakRows == 0 {
		return 0
	}
	return float64(r.Escapes) / float64(r.TrueWeakRows)
}

// Escapes compares a profile against the fault model's ground truth at
// the target idle time.
func Escapes(p *Profile, model *faults.Model, targetIdle dram.Nanoseconds) EscapeReport {
	g := p.Geometry
	var rep EscapeReport
	rep.ProfiledRows = len(p.WeakRows)
	for b := 0; b < g.BanksPerChip; b++ {
		for r := 0; r < g.RowsPerBank; r++ {
			a := dram.RowAddress{Bank: b, Row: r}
			truly := model.RowCanFail(a, targetIdle)
			flagged := p.Contains(a)
			switch {
			case truly && !flagged:
				rep.TrueWeakRows++
				rep.Escapes++
			case truly && flagged:
				rep.TrueWeakRows++
			case !truly && flagged:
				rep.FalseAlarms++
			}
		}
	}
	return rep
}
