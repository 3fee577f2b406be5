package core

import (
	"context"
	"fmt"
	"math/rand"

	"memcon/internal/dram"
	"memcon/internal/faults"
	"memcon/internal/obs"
	"memcon/internal/remap"
	"memcon/internal/trace"
)

// System runs the MEMCON engine against the full silicon model: a
// dram.Module holding real content and a faults.Model deciding which
// cells flip. Every write stores fresh random bits. It is the
// end-to-end fidelity mode of the examples, abl-remap and the
// reliability tests; the pure Engine accounting mode suits sweeps.
//
// System maps trace pages onto module rows (page p -> bank p div R,
// row p mod R for R rows per bank, as dram.Geometry.AddressOfIndex
// does) and audits the reliability guarantee: no data-dependent failure
// may corrupt content silently, so a row at LO-REF must have tested
// clean with its current content. A cell's failure also depends on its
// PHYSICAL neighbours' content, so every write re-tests the written
// row's physical neighbours at LO-REF or under test (only the silicon
// knows them; System models a DRAM-internal adjacency hint).
type System struct {
	cfg   Config
	mod   *dram.Module
	model *faults.Model
	eng   *Engine
	geom  dram.Geometry
	rng   *rand.Rand

	// obs receives system-level events (neighbour re-tests, remap
	// activity) on top of the engine's own stream.
	obs obs.Observer

	// remapPolicy, when set, remaps rows that repeatedly fail tests to
	// spare rows in a manufacturing-screened reliable region — the third
	// mitigation of the paper's triad (high refresh / ECC / remapping).
	// A remapped row runs at LO-REF: its content lives in the reliable
	// spare. remapped is indexed flat by page over the module's rows;
	// nil until the mitigation is enabled.
	remapPolicy *remap.Policy
	remapped    []bool

	// audit bookkeeping
	undetected int
	detected   int

	// cellBuf is reused across FailingCells queries on the online-test
	// and audit hot paths; System is single-goroutine by contract.
	cellBuf []int
}

// EnableRemapMitigation reserves sparesPerBank screened spare rows per
// bank and remaps any row that fails failThreshold consecutive online
// tests. Must be called before Run.
func (s *System) EnableRemapMitigation(sparesPerBank, failThreshold int) error {
	table, err := remap.New(s.geom, sparesPerBank)
	if err != nil {
		return err
	}
	policy, err := remap.NewPolicy(table, failThreshold)
	if err != nil {
		return err
	}
	s.remapPolicy = policy
	s.remapped = make([]bool, s.geom.TotalRows())
	return nil
}

// isRemapped reports whether page's content lives in a screened spare.
func (s *System) isRemapped(page uint32) bool {
	return int(page) < len(s.remapped) && s.remapped[page]
}

// RemappedRows returns how many rows the remap mitigation redirected.
func (s *System) RemappedRows() int {
	if s.remapPolicy == nil {
		return 0
	}
	return s.remapPolicy.Remapped()
}

// NewSystem builds a full-fidelity MEMCON system. The module and fault
// model must share a geometry; pages beyond the module capacity are
// rejected at run time. Write content comes from a generator seeded by
// the configuration's quantum, so a run is reproducible. The one
// optional setting is EnableRemapMitigation. Options apply to the
// embedded engine; the system supplies its own silicon-backed tester,
// so a WithTester option is overridden.
func NewSystem(cfg Config, mod *dram.Module, model *faults.Model, opts ...EngineOption) (*System, error) {
	if mod.Geometry() != model.Geometry() {
		return nil, fmt.Errorf("core: module and fault model geometries differ")
	}
	if cfg.NumPages < mod.Geometry().TotalRows() {
		// The engine tracks every module row the trace can touch.
		cfg.NumPages = mod.Geometry().TotalRows()
	}
	s := &System{
		cfg:   cfg,
		mod:   mod,
		model: model,
		geom:  mod.Geometry(),
		rng:   rand.New(rand.NewSource(int64(cfg.Quantum) ^ 0x5eed)),
	}
	s.obs = applyEngineOptions(opts).obs
	eng, err := New(cfg, append(opts, WithTester(TesterFunc(s.test)))...)
	if err != nil {
		return nil, err
	}
	s.eng = eng
	return s, nil
}

// rowOf maps a trace page to a module row address.
func (s *System) rowOf(page uint32) (dram.RowAddress, error) {
	total := s.geom.TotalRows()
	if int(page) >= total {
		return dram.RowAddress{}, fmt.Errorf("core: page %d exceeds module capacity of %d rows", page, total)
	}
	return s.geom.AddressOfIndex(int(page)), nil
}

// test implements the engine's Tester against the silicon: the row has
// been idle for one LO-REF window (the engine schedules completion that
// way); MEMCON reads it back and compares. Failing cells found by the
// test have genuinely flipped — the test detects them, MEMCON refreshes
// the row at HI-REF, and the system (not modelled further here) repairs
// them from ECC or by notifying software; for the audit they count as
// detected, never silent.
func (s *System) test(page uint32, at trace.Microseconds) bool {
	addr, err := s.rowOf(page)
	if err != nil {
		return false
	}
	if s.isRemapped(page) {
		// Already backed by a screened spare: any content is safe there.
		s.mod.Activate(addr, nsOf(at))
		if s.obs != nil {
			s.obs.OnEvent(obs.Event{Kind: obs.KindRemapHit, Page: page, At: int64(at), Aux: 0})
		}
		return true
	}
	idle := s.cfg.LoRef // the engine kept the row idle one LO-REF window
	s.cellBuf = s.model.AppendFailingCells(s.cellBuf[:0], s.mod, addr, idle)
	cells := s.cellBuf
	// The read-back recharges the row either way.
	s.mod.Activate(addr, nsOf(at))
	if len(cells) > 0 {
		s.detected += len(cells)
		if s.remapPolicy != nil {
			if spare := s.remapPolicy.RecordTest(addr, false); spare != nil {
				// The row's content now lives in a screened spare row;
				// it can safely run at LO-REF.
				s.remapped[page] = true
				if s.obs != nil {
					s.obs.OnEvent(obs.Event{Kind: obs.KindRemapHit, Page: page, At: int64(at), Aux: 1})
				}
				return true
			}
		}
		return false
	}
	if s.remapPolicy != nil {
		s.remapPolicy.RecordTest(addr, true)
	}
	return true
}

func nsOf(at trace.Microseconds) dram.Nanoseconds {
	return dram.Nanoseconds(at) * dram.Microsecond
}

// Run replays the trace, storing fresh random bits at every write and
// re-testing the written row's physical neighbours. The reliability
// audit runs at every write and at the end. It is RunContext with a
// background context.
func (s *System) Run(tr *trace.Trace) (Report, error) {
	return s.RunContext(context.Background(), tr)
}

// RunContext is Run under a cancellation context, checked between
// event batches. A nil ctx means context.Background().
func (s *System) RunContext(ctx context.Context, tr *trace.Trace) (Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	buf := dram.NewRow(s.geom.ColsPerRow)
	for i, ev := range tr.Events {
		if i%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return Report{}, err
			}
		}
		addr, err := s.rowOf(ev.Page)
		if err != nil {
			return Report{}, err
		}
		// Audit before the content is replaced: did the row silently
		// lose data under the refresh interval MEMCON assigned?
		s.auditRow(ev.Page, addr)
		buf.Randomize(s.rng)
		if err := s.mod.WriteRow(addr, buf, nsOf(ev.At)); err != nil {
			return Report{}, err
		}
		if err := s.eng.Observe(ev); err != nil {
			return Report{}, err
		}
		// The new content voids the physical neighbours' verdicts.
		for _, nb := range s.model.NeighborSysRows(addr) {
			page := uint32(s.geom.RowIndex(nb))
			if loRef, testing := s.eng.pageStatus(page); loRef || testing {
				if err := s.eng.Retest(page); err != nil {
					return Report{}, err
				}
				if s.obs != nil {
					s.obs.OnEvent(obs.Event{Kind: obs.KindNeighborRetest, Page: ev.Page, At: int64(ev.At), Aux: int64(page)})
				}
			}
		}
	}
	rep, err := s.eng.Finish(tr.Duration)
	if err != nil {
		return Report{}, err
	}
	// Final audit pass over every written row.
	for p := 0; p < rep.Pages && p < s.geom.TotalRows(); p++ {
		addr := s.geom.AddressOfIndex(p)
		s.auditRow(uint32(p), addr)
	}
	return rep, nil
}

// auditRow verifies the reliability guarantee for one row:
// under MEMCON the row's effective idle exposure is bounded by its
// assigned refresh interval, so failures can only occur if a cell flips
// within one refresh window — which the engine only permits at LO-REF
// after a clean test of the very same content. A flip under those
// conditions is an undetected failure and breaks the guarantee.
func (s *System) auditRow(page uint32, addr dram.RowAddress) {
	if s.isRemapped(page) {
		// The row's content lives in a manufacturing-screened spare; the
		// faulty physical row is out of service.
		return
	}
	interval := s.cfg.HiRef
	if loRef, _ := s.eng.pageStatus(page); loRef {
		interval = s.cfg.LoRef
	}
	// The row is refreshed every `interval`; its content is therefore
	// never idle longer than that. If the current content would flip
	// cells within one interval, MEMCON failed to protect it.
	s.cellBuf = s.model.AppendFailingCells(s.cellBuf[:0], s.mod, addr, interval)
	s.undetected += len(s.cellBuf)
}

// UndetectedFailures returns the number of audit violations (must be 0
// for a correct MEMCON).
func (s *System) UndetectedFailures() int { return s.undetected }

// DetectedFailures returns the number of failing cells MEMCON's online
// tests caught and mitigated.
func (s *System) DetectedFailures() int { return s.detected }
