// Package memcon is the public facade of the MEMCON reproduction — a
// memory-content-based detection and mitigation mechanism for
// data-dependent DRAM failures (Khan et al., MICRO 2017).
//
// The library is organized as one package per subsystem under internal/;
// this package re-exports the types and entry points a downstream user
// needs:
//
//   - Engine / Run: the trace-driven MEMCON engine (PRIL prediction,
//     online testing, multi-rate refresh accounting).
//   - System / Chip: the full-fidelity mode against a simulated DRAM
//     chip with a physically grounded data-dependent failure model.
//   - Workloads and experiments: the paper's evaluation, regenerable
//     table by table and figure by figure.
//
// # Quick start
//
//	app, _ := memcon.AppByName("Netflix")
//	tr := app.Generate(1, 1.0)
//	rep, _ := memcon.Run(tr, memcon.DefaultConfig(), nil)
//	fmt.Printf("refresh reduction: %.1f%%\n", 100*rep.RefreshReduction())
package memcon

import (
	"context"
	"fmt"
	"io"

	"memcon/internal/core"
	"memcon/internal/costmodel"
	"memcon/internal/dram"
	"memcon/internal/experiments"
	"memcon/internal/faults"
	"memcon/internal/obs"
	"memcon/internal/report"
	"memcon/internal/softmc"
	"memcon/internal/trace"
	"memcon/internal/workload"
)

// Core engine types.
type (
	// Config parameterizes the MEMCON engine (quantum, HI/LO refresh
	// intervals, test mode, PRIL buffer capacity).
	Config = core.Config
	// Report is the outcome of an engine run: refresh operations,
	// testing costs, LO-REF coverage, prediction accuracy.
	Report = core.Report
	// Engine is the event-driven MEMCON engine.
	Engine = core.Engine
	// System is the full-fidelity engine bound to a simulated chip:
	// random content per write, a re-test of each written row's
	// physical neighbours, and an audit for silent failures.
	System = core.System
	// Tester decides online test outcomes (see AlwaysPass).
	Tester = core.Tester
	// TesterFunc adapts a function to Tester.
	TesterFunc = core.TesterFunc
)

// Trace types.
type (
	// Trace is a time-ordered page write stream.
	Trace = trace.Trace
	// Event is a single write.
	Event = trace.Event
	// TraceSource is a forward-only event stream, such as the
	// incremental TraceStream over a compact file. Its one event
	// method, Read, decodes events in batches into a caller's slice.
	TraceSource = trace.Source
	// TraceStream incrementally decodes a compact (v2) trace file with
	// constant memory; it implements TraceSource.
	TraceStream = trace.Stream
)

// NewTraceStream opens a compact (v2) trace stream over r; events
// decode lazily from a 4 KiB window, so multi-GB traces replay with
// O(pages) memory through RunSource. Decoding is CPU-bound, not
// I/O-bound: on a 2-vCPU Xeon with Go 1.24, Read decodes an event in
// about 6–7 ns, and a stream replay through RunSource costs about
// 8–13 ns per event, decoding included.
func NewTraceStream(r io.Reader) (*TraceStream, error) { return trace.NewStream(r) }

// Workload types.
type (
	// AppSpec generates a long-running application write trace.
	AppSpec = workload.AppSpec
	// ContentSpec generates SPEC-like memory-content images.
	ContentSpec = workload.ContentSpec
)

// DRAM and fault-model types.
type (
	// Geometry describes a DRAM module.
	Geometry = dram.Geometry
	// Module is the system-visible DRAM state.
	Module = dram.Module
	// FaultModel decides which cells flip under which content.
	FaultModel = faults.Model
	// ChipTester is the SoftMC-style characterization harness.
	ChipTester = softmc.Tester
)

// Observability types, re-exported from internal/obs. An Observer
// receives the engine's structured lifecycle events; a Registry plus
// Metrics aggregates them into counters, gauges and log-scale
// histograms ready for JSON or Prometheus exposition.
type (
	// Observer receives structured engine lifecycle events.
	Observer = obs.Observer
	// ObserverFunc adapts a function to Observer.
	ObserverFunc = obs.ObserverFunc
	// ObserverEvent is one structured lifecycle event. (The name Event
	// is taken by the trace event type above.)
	ObserverEvent = obs.Event
	// EventKind discriminates ObserverEvent payloads.
	EventKind = obs.Kind
	// Registry holds named metrics and renders them as JSON,
	// Prometheus text exposition, or a human table.
	Registry = obs.Registry
	// Metrics is an Observer that aggregates events into a Registry.
	Metrics = obs.Metrics
	// Recorder is an Observer that retains every event, for tests.
	Recorder = obs.Recorder
)

// Event kinds (see the internal/obs package documentation for each
// payload's Page/At/Aux semantics).
const (
	KindWrite          = obs.KindWrite
	KindPredict        = obs.KindPredict
	KindTestQueued     = obs.KindTestQueued
	KindTestDrained    = obs.KindTestDrained
	KindTestAborted    = obs.KindTestAborted
	KindRefreshToLo    = obs.KindRefreshToLo
	KindRefreshToHi    = obs.KindRefreshToHi
	KindPrilInsert     = obs.KindPrilInsert
	KindPrilEvict      = obs.KindPrilEvict
	KindPrilDiscard    = obs.KindPrilDiscard
	KindRemapHit       = obs.KindRemapHit
	KindNeighborRetest = obs.KindNeighborRetest
	KindRowFailure     = obs.KindRowFailure
	KindRowWeak        = obs.KindRowWeak
	KindRunDone        = obs.KindRunDone
)

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewMetrics creates the aggregating observer over reg, registering
// the full memcon_* metric family eagerly so sinks always render a
// complete document.
func NewMetrics(reg *Registry) *Metrics { return obs.NewMetrics(reg) }

// TeeObservers fans events out to every non-nil observer; it returns
// nil when all are nil.
func TeeObservers(os ...Observer) Observer { return obs.Tee(os...) }

// Option customizes engine construction (see New).
type Option = core.EngineOption

// WithTester installs the online-test oracle. A nil tester (or no
// WithTester option at all) selects AlwaysPass, the accounting mode.
func WithTester(t Tester) Option { return core.WithTester(t) }

// WithObserver installs a structured-event observer on the engine
// lifecycle. A nil observer disables observation; the disabled event
// path costs a nil check and performs no allocation.
func WithObserver(o Observer) Option { return core.WithObserver(o) }

// AlwaysPass is the accounting-mode tester: every online test passes.
var AlwaysPass = core.AlwaysPass

// DefaultConfig returns the paper's primary configuration (1024 ms
// quantum, HI-REF 16 ms, LO-REF 64 ms, Read-and-Compare).
func DefaultConfig() Config { return core.DefaultConfig() }

// Run replays a write trace through a fresh MEMCON engine.
func Run(tr *Trace, cfg Config, tester Tester) (Report, error) {
	return core.RunWith(tr, cfg, core.WithTester(tester))
}

// RunWith replays a write trace through a fresh MEMCON engine built
// with the given options — the observable form of Run:
//
//	reg := memcon.NewRegistry()
//	rep, err := memcon.RunWith(tr, cfg, memcon.WithObserver(memcon.NewMetrics(reg)))
func RunWith(tr *Trace, cfg Config, opts ...Option) (Report, error) {
	return core.RunWith(tr, cfg, opts...)
}

// RunContext is RunWith under a cancellation context, checked between
// event batches.
func RunContext(ctx context.Context, tr *Trace, cfg Config, opts ...Option) (Report, error) {
	return core.RunContext(ctx, tr, cfg, opts...)
}

// RunSource replays a streaming event source through a fresh MEMCON
// engine, reading it in batches of 256 events and growing the page
// space on demand as the source reveals it:
//
//	s, _ := memcon.NewTraceStream(f)
//	rep, err := memcon.RunSource(ctx, s, memcon.DefaultConfig())
func RunSource(ctx context.Context, src TraceSource, cfg Config, opts ...Option) (Report, error) {
	return core.RunSource(ctx, src, cfg, opts...)
}

// New builds an incremental engine with functional options; feed it
// events with Observe and close it with Finish.
func New(cfg Config, opts ...Option) (*Engine, error) {
	return core.New(cfg, opts...)
}

// Apps returns the twelve long-running application workload generators
// (Table 1 analogues).
func Apps() []AppSpec { return workload.Apps() }

// AppByName returns one application generator by name.
func AppByName(name string) (AppSpec, error) { return workload.AppByName(name) }

// SPECContents returns the twenty SPEC CPU2006 content synthesizers.
func SPECContents() []ContentSpec { return workload.SPECContents() }

// Chip bundles a simulated DRAM chip: module, vendor scrambling, fault
// model, and a characterization tester.
type Chip struct {
	Module *Module
	Model  *FaultModel
	Tester *ChipTester
}

// NewChip builds a simulated chip with the given geometry and seed using
// fault-model parameters scaled to the LO-REF window, ready for use with
// NewSystem or the softmc characterization flows. It uses the default
// vendor address mapping; NewChipMapped selects another.
func NewChip(geom Geometry, seed uint64) (*Chip, error) {
	return NewChipMapped(geom, seed, "")
}

// MappingNames lists the registered vendor address-mapping schemes a
// chip can be built with (see NewChipMapped).
func MappingNames() []string { return dram.MappingNames() }

// NewChipMapped is NewChip with an explicit vendor address-mapping
// scheme; the empty string and "default" both select the original
// scrambler, and unknown names are errors naming the registry.
func NewChipMapped(geom Geometry, seed uint64, mapping string) (*Chip, error) {
	scr, err := dram.NewMappedScrambler(geom, seed, nil, mapping)
	if err != nil {
		return nil, fmt.Errorf("memcon: %w", err)
	}
	model, err := faults.NewModel(geom, scr, seed, faults.ParamsForRefresh(dram.RefreshWindowDefault))
	if err != nil {
		return nil, fmt.Errorf("memcon: building fault model: %w", err)
	}
	mod, err := dram.NewModule(geom)
	if err != nil {
		return nil, fmt.Errorf("memcon: building module: %w", err)
	}
	tester, err := softmc.NewTester(mod, model)
	if err != nil {
		return nil, fmt.Errorf("memcon: building tester: %w", err)
	}
	return &Chip{Module: mod, Model: model, Tester: tester}, nil
}

// DefaultGeometry returns a modest chip geometry for experimentation.
func DefaultGeometry() Geometry { return dram.DefaultGeometry() }

// NewSystem binds the MEMCON engine to a simulated chip for
// full-fidelity runs (real content, real failures, reliability audit).
// Every write stores random content and re-tests the written row's
// physical neighbours that sit at LO-REF or under test; observe the
// re-tests as KindNeighborRetest events or, through NewMetrics, as
// memcon_neighbor_retests_total. The one optional setting is
// System.EnableRemapMitigation. Options apply to the embedded engine;
// the system supplies its own silicon-backed tester, so WithTester is
// overridden.
func NewSystem(cfg Config, chip *Chip, opts ...Option) (*System, error) {
	return core.NewSystem(cfg, chip.Module, chip.Model, opts...)
}

// MinWriteInterval returns the minimum interval between writes to a row
// that amortizes an online test, for the paper's primary configuration
// (560 ms: Read-and-Compare at 64 ms LO-REF).
func MinWriteInterval() dram.Nanoseconds {
	mwi, err := costmodel.DefaultConfig().MinWriteInterval()
	if err != nil {
		// The default configuration is statically valid; reaching this
		// indicates library corruption.
		panic(err)
	}
	return mwi
}

// Experiment runs one of the paper's evaluation artifacts (the ids
// ExperimentIDs lists) and returns its rendered report.
func Experiment(ctx context.Context, req ExperimentRequest) (fmt.Stringer, error) {
	res, err := experiments.RunRequest(ctx, req, experiments.Runtime{})
	if err != nil {
		return nil, err
	}
	return res.Report(), nil
}

// ExperimentRequest is one experiment run: its id and its
// ExperimentInputs (a literal names them as Inputs:).
type ExperimentRequest = experiments.Request

// ExperimentInputs are the inputs that determine an experiment's
// report; its provenance records the same struct.
type ExperimentInputs = report.Inputs

// DefaultExperimentRequest returns the full-scale request for an id.
func DefaultExperimentRequest(id string) ExperimentRequest { return experiments.DefaultRequest(id) }

// ExperimentIDs lists the available experiment ids.
func ExperimentIDs() []string { return experiments.IDs() }

// ReadSkipAnalysis quantifies the refresh operations a read-aware
// controller could skip for the given READ trace and refresh interval —
// the paper's footnote-3 future-work optimization, implemented.
func ReadSkipAnalysis(reads *Trace, interval dram.Nanoseconds) (core.ReadSkipReport, error) {
	return core.ReadSkipAnalysis(reads, interval)
}

// CombinedSavings composes a MEMCON run's refresh reduction with
// read-aware skipping of the residual refreshes.
func CombinedSavings(rep Report, rs core.ReadSkipReport) float64 {
	return core.CombinedSavings(rep, rs)
}
