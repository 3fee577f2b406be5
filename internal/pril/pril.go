// Package pril implements the Probabilistic Remaining Interval Length
// predictor (paper §4.2, Fig. 13). PRIL divides execution time into
// fixed-length quanta and tracks, per quantum, the pages that received
// exactly one write. A page that was written once in the previous
// quantum and not at all in the current quantum has a current interval
// length of at least one quantum; by the decreasing-hazard-rate property
// of Pareto-distributed write intervals, its remaining interval is
// predicted to be long, and MEMCON initiates a test on it.
//
// The implementation follows the paper's hardware design: two write-map
// bit vectors plus two bounded write-buffers. When the write-buffer is
// full, new pages are discarded and simply stay at the HI-REF state —
// correctness never depends on a prediction being made.
package pril

import (
	"fmt"

	"memcon/internal/obs"
	"memcon/internal/trace"
)

// Config configures a predictor.
type Config struct {
	// Quantum is the quantum length; the paper evaluates 512, 1024 and
	// 2048 ms (equal to the current-interval-length threshold that gives
	// high accuracy AND high coverage, Fig. 12).
	Quantum trace.Microseconds
	// NumPages is the size of the tracked page space (write-map bits).
	NumPages int
	// BufferCap bounds each write-buffer; the paper sizes it at ~4000
	// entries (§6.4). Zero means unbounded (an idealized PRIL used for
	// ablation).
	BufferCap int
}

// Validate reports an error for unusable configurations.
func (c Config) Validate() error {
	if c.Quantum <= 0 {
		return fmt.Errorf("pril: quantum must be positive, got %d", c.Quantum)
	}
	if c.NumPages <= 0 {
		return fmt.Errorf("pril: page count must be positive, got %d", c.NumPages)
	}
	if c.BufferCap < 0 {
		return fmt.Errorf("pril: buffer capacity cannot be negative, got %d", c.BufferCap)
	}
	return nil
}

// writeMap is a bit vector marking pages written during a quantum.
type writeMap []uint64

func newWriteMap(pages int) writeMap { return make(writeMap, (pages+63)/64) }

func (w writeMap) set(p uint32)      { w[p/64] |= 1 << (p % 64) }
func (w writeMap) unset(p uint32)    { w[p/64] &^= 1 << (p % 64) }
func (w writeMap) get(p uint32) bool { return w[p/64]&(1<<(p%64)) != 0 }
func (w writeMap) clear() {
	for i := range w {
		w[i] = 0
	}
}

// grown returns the map extended to cover pages, reusing the backing
// array when it already has capacity.
func (w writeMap) grown(pages int) writeMap {
	if need := (pages + 63) / 64; need > len(w) {
		return append(w, make(writeMap, need-len(w))...)
	}
	return w
}

// writeBuffer stores the addresses of pages written exactly once in a
// quantum: a presence bitset for O(1) membership plus a compact
// insertion-order slice, mirroring a hardware CAM that drains
// oldest-first (the engine's test queue inherits that order). All
// operations are allocation-free in steady state; drain recycles both
// the bitset (bits are unset as entries emit, so no O(pages) clear) and
// the order slice's capacity across quanta.
type writeBuffer struct {
	cap     int
	n       int // live entries (order may hold superseded duplicates)
	present writeMap
	// order records insertions; entries whose page has since been
	// removed are skipped (and re-insertions re-appended) at drain.
	order []uint32
}

func newWriteBuffer(capacity, pages int) *writeBuffer {
	return &writeBuffer{cap: capacity, present: newWriteMap(pages)}
}

// add inserts a page; it reports false when the buffer is full.
func (b *writeBuffer) add(p uint32) bool {
	if b.present.get(p) {
		return true
	}
	if b.cap > 0 && b.n >= b.cap {
		return false
	}
	b.present.set(p)
	b.order = append(b.order, p)
	b.n++
	return true
}

func (b *writeBuffer) remove(p uint32) {
	if b.present.get(p) {
		b.present.unset(p)
		b.n--
	}
}

func (b *writeBuffer) contains(p uint32) bool { return b.present.get(p) }

func (b *writeBuffer) len() int { return b.n }

// Stats aggregates predictor bookkeeping for the §6.4 evaluation.
type Stats struct {
	// Writes is the number of write events observed.
	Writes int64
	// Predictions is the number of pages predicted long (tests
	// initiated).
	Predictions int64
	// Discards counts pages dropped because the write-buffer was full
	// (they stay at HI-REF; a capacity ablation knob).
	Discards int64
	// MultiWriteRemovals counts pages removed from a buffer because a
	// second write arrived within the same quantum.
	MultiWriteRemovals int64
	// PrevQuantumRemovals counts pages removed from the previous buffer
	// because a write arrived in the current quantum.
	PrevQuantumRemovals int64
	// Quanta is the number of completed quanta.
	Quanta int64
	// PeakBuffer is the maximum number of simultaneously tracked pages
	// in one buffer, for the storage-overhead analysis.
	PeakBuffer int
}

// Predictor is the PRIL mechanism. Feed it the time-ordered write stream
// via Observe; it emits test candidates at quantum boundaries through
// the callback given to OnPredict (or collects them if none is set).
//
// Predictor is single-goroutine, like the memory-controller structure it
// models.
type Predictor struct {
	cfg Config

	curMap  writeMap
	prevMap writeMap
	curBuf  *writeBuffer
	prevBuf *writeBuffer

	quantumStart trace.Microseconds
	stats        Stats

	onPredict func(page uint32, at trace.Microseconds)
	obs       obs.Observer
}

// New creates a predictor.
func New(cfg Config) (*Predictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Predictor{
		cfg:     cfg,
		curMap:  newWriteMap(cfg.NumPages),
		prevMap: newWriteMap(cfg.NumPages),
		curBuf:  newWriteBuffer(cfg.BufferCap, cfg.NumPages),
		prevBuf: newWriteBuffer(cfg.BufferCap, cfg.NumPages),
	}, nil
}

// Grow extends the tracked page space to at least pages, preserving all
// predictor state. Streaming replays call it when an event addresses a
// page beyond the current space; the bitsets grow with amortized
// doubling through append.
func (p *Predictor) Grow(pages int) {
	if pages <= p.cfg.NumPages {
		return
	}
	p.curMap = p.curMap.grown(pages)
	p.prevMap = p.prevMap.grown(pages)
	p.curBuf.present = p.curBuf.present.grown(pages)
	p.prevBuf.present = p.prevBuf.present.grown(pages)
	p.cfg.NumPages = pages
}

// OnPredict installs the callback invoked for every page predicted to
// have a long remaining interval. The callback runs at quantum
// boundaries during Observe or Finish calls.
func (p *Predictor) OnPredict(fn func(page uint32, at trace.Microseconds)) {
	p.onPredict = fn
}

// SetObserver installs an observer notified of buffer activity
// (inserts, evictions, capacity discards). A nil observer — the
// default — keeps the event path free of any extra work.
func (p *Predictor) SetObserver(o obs.Observer) { p.obs = o }

// Stats returns a snapshot of the bookkeeping counters.
func (p *Predictor) Stats() Stats { return p.stats }

// Observe processes one write event. Events must arrive in
// non-decreasing time order; out-of-order events return an error.
func (p *Predictor) Observe(e trace.Event) error {
	if e.At < p.quantumStart {
		return fmt.Errorf("pril: event at %d before current quantum start %d", e.At, p.quantumStart)
	}
	if int(e.Page) >= p.cfg.NumPages {
		return fmt.Errorf("pril: page %d outside tracked space of %d pages", e.Page, p.cfg.NumPages)
	}
	// Advance quanta until the event falls inside the current one.
	for e.At >= p.quantumStart+p.cfg.Quantum {
		p.endQuantum()
	}
	p.stats.Writes++

	// Fig. 13 workflow.
	if !p.curMap.get(e.Page) {
		// First write to the page this quantum (step 1).
		p.curMap.set(e.Page)
		if p.curBuf.add(e.Page) {
			if p.curBuf.len() > p.stats.PeakBuffer {
				p.stats.PeakBuffer = p.curBuf.len()
			}
			if p.obs != nil {
				p.obs.OnEvent(obs.Event{Kind: obs.KindPrilInsert, Page: e.Page, At: int64(e.At), Aux: int64(p.curBuf.len())})
			}
		} else {
			p.stats.Discards++
			if p.obs != nil {
				p.obs.OnEvent(obs.Event{Kind: obs.KindPrilDiscard, Page: e.Page, At: int64(e.At), Aux: int64(p.cfg.BufferCap)})
			}
		}
	} else if p.curBuf.contains(e.Page) {
		// Second write within the quantum: interval is clearly shorter
		// than a quantum (step 2).
		p.curBuf.remove(e.Page)
		p.stats.MultiWriteRemovals++
		if p.obs != nil {
			p.obs.OnEvent(obs.Event{Kind: obs.KindPrilEvict, Page: e.Page, At: int64(e.At), Aux: 0})
		}
	}
	// Any write in the current quantum disqualifies a previous-quantum
	// candidate (step 3).
	if p.prevBuf.contains(e.Page) {
		p.prevBuf.remove(e.Page)
		p.stats.PrevQuantumRemovals++
		if p.obs != nil {
			p.obs.OnEvent(obs.Event{Kind: obs.KindPrilEvict, Page: e.Page, At: int64(e.At), Aux: 1})
		}
	}
	return nil
}

// Settled reports whether page is settled: written this quantum and in
// neither write buffer. Steps 1-3 of Fig. 13 pass a further write to a
// settled page by, so until end, the current quantum's end, such a
// write changes nothing but the write count (see CountWrite).
func (p *Predictor) Settled(page uint32) (end trace.Microseconds, ok bool) {
	ok = p.curMap.get(page) && !p.curBuf.contains(page) && !p.prevBuf.contains(page)
	return p.quantumStart + p.cfg.Quantum, ok
}

// CountWrite accounts a write to a settled page before its quantum
// ends: the write count is all that Observe would change.
func (p *Predictor) CountWrite() { p.stats.Writes++ }

// endQuantum performs the end-of-quantum work (steps 4-5 of Fig. 13):
// pages still in the previous buffer were written once in the previous
// quantum and not at all in this one — predict them long and emit them,
// then swap buffers and maps.
func (p *Predictor) endQuantum() {
	boundary := p.quantumStart + p.cfg.Quantum
	// Drain oldest-first, inline so the per-quantum path stays
	// allocation-free: unsetting bits as entries emit both skips the
	// duplicate order entries a remove-then-re-add sequence leaves
	// behind and leaves the bitset empty for reuse without a clear.
	b := p.prevBuf
	for _, page := range b.order {
		if !b.present.get(page) {
			continue
		}
		b.present.unset(page)
		p.stats.Predictions++
		if p.onPredict != nil {
			p.onPredict(page, boundary)
		}
	}
	b.order = b.order[:0]
	b.n = 0
	p.prevMap.clear()
	p.prevMap, p.curMap = p.curMap, p.prevMap
	p.prevBuf, p.curBuf = p.curBuf, p.prevBuf
	p.quantumStart = boundary
	p.stats.Quanta++
}

// Finish advances time to the end of the run, flushing quantum
// boundaries up to and including the one containing endTime.
func (p *Predictor) Finish(endTime trace.Microseconds) {
	for endTime >= p.quantumStart+p.cfg.Quantum {
		p.endQuantum()
	}
}

// Prediction records one emitted prediction, for offline analysis.
type Prediction struct {
	Page uint32
	At   trace.Microseconds
}

// Run replays an entire trace through a fresh predictor with the given
// configuration and returns the predictions plus final statistics. It is
// the batch entry point used by the experiments.
func Run(tr *trace.Trace, cfg Config) ([]Prediction, Stats, error) {
	if max := tr.MaxPage(); max >= cfg.NumPages {
		cfg.NumPages = max + 1
	}
	p, err := New(cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	var preds []Prediction
	p.OnPredict(func(page uint32, at trace.Microseconds) {
		preds = append(preds, Prediction{Page: page, At: at})
	})
	for _, e := range tr.Events {
		if err := p.Observe(e); err != nil {
			return nil, Stats{}, err
		}
	}
	p.Finish(tr.Duration)
	return preds, p.Stats(), nil
}
