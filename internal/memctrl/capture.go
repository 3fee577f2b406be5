package memctrl

import (
	"memcon/internal/dram"
	"memcon/internal/trace"
)

// BusTracer is the HMTT analogue: the paper's second FPGA infrastructure
// intercepts the memory bus and records command/address/timestamp for
// every request. Attaching a tracer to a Controller captures the WRITE
// stream in the exact format MEMCON's analysis consumes, closing the
// loop: simulate a system -> capture its bus trace -> feed MEMCON. Reads
// go to a second trace, for the read-aware analysis.
type BusTracer struct {
	// writes and reads accumulate events; page = bank-interleaved row id.
	writes, reads []trace.Event
	banks         int
}

// NewBusTracer creates a tracer for a controller with the given bank
// count (used to flatten bank/row into a page id).
func NewBusTracer(banks int) *BusTracer {
	return &BusTracer{banks: banks}
}

// pageOf flattens (bank, row) into a page id the way MEMCON's per-page
// tracking sees memory.
func (t *BusTracer) pageOf(bank, row int) uint32 {
	return uint32(row*t.banks + bank)
}

// Record captures one request. Timestamps are converted from the
// controller's nanoseconds to trace microseconds.
func (t *BusTracer) Record(at dram.Nanoseconds, bank, row int, write bool) {
	e := trace.Event{Page: t.pageOf(bank, row), At: trace.Microseconds(at / dram.Microsecond)}
	if write {
		t.writes = append(t.writes, e)
	} else {
		t.reads = append(t.reads, e)
	}
}

// WriteTrace returns the captured write trace with the given name and
// end time.
func (t *BusTracer) WriteTrace(name string, end dram.Nanoseconds) *trace.Trace {
	out := &trace.Trace{Name: name, Duration: trace.Microseconds(end / dram.Microsecond), Events: t.writes}
	out.Sort()
	return out
}

// ReadTrace returns the captured read trace with the given name and
// end time.
func (t *BusTracer) ReadTrace(name string, end dram.Nanoseconds) *trace.Trace {
	out := &trace.Trace{Name: name, Duration: trace.Microseconds(end / dram.Microsecond), Events: t.reads}
	out.Sort()
	return out
}

// AttachTracer installs the tracer on the controller; every subsequent
// Access is recorded.
func (c *Controller) AttachTracer(t *BusTracer) { c.tracer = t }
