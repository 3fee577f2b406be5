// Command memconsim regenerates the MEMCON paper's evaluation artifacts.
// Each table and figure of the evaluation is an experiment id; running
// an id prints the same rows/series the paper reports.
//
// Usage:
//
//	memconsim -list
//	memconsim -exp fig14 [-scale 0.5] [-seed 42] [-parallel 4]
//	memconsim -all [-scale 0.2]
//	memconsim -replay trace.bin
//
// -replay streams a tracegen-written compact (v2) trace file through the
// MEMCON engine with O(pages) memory; the printed report
// equals core.RunContext's on the same trace held in memory. A file in
// the retired fixed-width v1 format is rejected; regenerate it with
// tracegen.
//
// Performance experiments (fig15, fig16, table3) additionally honour
// -simtime and -mixes. -parallel bounds the worker pool used inside
// each experiment's sweep; results are byte-identical for any value.
//
// Fleet experiments (fleet-ce, fleet-risk) honour -fleet, the module
// count of the simulated deployment (0, the default, derives a
// scale-proportional size: 160 modules at -scale 1). With -exp, the
// raw CE event log of a fleet run can additionally be captured in the
// compact streaming format:
//
//	memconsim -exp fleet-ce -fleet 1000 -fleet-out fleet.celog
//
// Read-disturb experiments (disturb-exposure, disturb-mitigation)
// honour -disturb, the RowHammer mitigation spec: none or a full spec,
// the one form memcond request bodies, report provenance and -diff use:
//
//	memconsim -exp disturb-mitigation -disturb para:0.01
//	memconsim -exp disturb-mitigation -disturb prac:2048
//
// Structured reports:
//
//	memconsim -exp fig14 -format csv             # primary data table as RFC-4180 CSV
//	memconsim -exp fig14 -format json            # canonical JSON report document
//	memconsim -all -out reports/                 # write reports/<id>.json per experiment
//	memconsim -diff reports/fig14.json           # re-run and diff; non-zero exit on drift
//
// Every experiment produces a typed report (provenance header plus
// typed tables); -format selects the rendering. -diff re-runs the
// experiment named in a saved report's provenance by round-tripping the
// provenance through experiments.Request (decode → Normalize →
// RunRequest), using the saved inputs (seed, scale, simtime, mixes,
// fleet, mapping, disturb, version) unless overridden on the command
// line, and fails when any value drifts beyond -tol-abs/-tol-rel.
//
// Observability:
//
//	memconsim -exp fig14 -metrics out.json             # aggregated metrics (JSON)
//	memconsim -all -metrics out.prom -metrics-format prom
//	memconsim -exp fig15 -pprof localhost:6060         # live pprof while running
//	memconsim -exp fig15 -trace run.trace              # runtime execution trace
//
// The json and prom metric documents contain only deterministic
// aggregates and are byte-identical for any -parallel value; the table
// format additionally shows volatile wall-clock data (per-experiment
// phase timings, per-worker pool utilization).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"memcon/internal/core"
	"memcon/internal/dram"
	"memcon/internal/experiments"
	"memcon/internal/fleet"
	"memcon/internal/obs"
	"memcon/internal/parallel"
	"memcon/internal/report"
	"memcon/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "memconsim: %v\n", err)
		os.Exit(1)
	}
}

// run executes the CLI against the given arguments and output stream.
// Cancelling ctx (main cancels it on an interrupt) stops in-flight
// sweeps at the next work-unit boundary.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("memconsim", flag.ContinueOnError)
	fs.SetOutput(out)
	defaults := experiments.DefaultRequest("")
	var (
		list     = fs.Bool("list", false, "list available experiments")
		exp      = fs.String("exp", "", "experiment id to run (see -list)")
		all      = fs.Bool("all", false, "run every experiment")
		scale    = fs.Float64("scale", defaults.Scale, "workload scale in (0,1]")
		seed     = fs.Int64("seed", defaults.Seed, "random seed (0 is honoured when set explicitly)")
		simtime  = fs.Int64("simtime", defaults.SimTimeNs, "performance-simulation time per run (ns)")
		mixes    = fs.Int("mixes", defaults.Mixes, "multiprogrammed mixes for performance runs")
		fleetN   = fs.Int("fleet", 0, "module count for fleet experiments (0 derives a scale-proportional size)")
		mapping  = fs.String("mapping", "", "address mapping for chip-level experiments: "+strings.Join(dram.MappingNames(), ", ")+" (default mapping when empty)")
		disturb  = fs.String("disturb", "", `RowHammer mitigation for disturb experiments: none, "para:<p>" (e.g. para:0.001) or "prac:<n>" (e.g. prac:4096)`)
		fleetOut = fs.String("fleet-out", "", "with -exp fleet-*: also write the CE event log to this file (compact format)")
		outFmt   = fs.String("format", "table", "output format: table, csv, or json")
		outDir   = fs.String("out", "", "also write each run's canonical JSON report to DIR/<id>.json")
		diffPath = fs.String("diff", "", "re-run the experiment saved in this JSON report and diff against it (non-zero exit on drift)")
		tolAbs   = fs.Float64("tol-abs", 0, "absolute numeric tolerance for -diff")
		tolRel   = fs.Float64("tol-rel", 0, "relative numeric tolerance for -diff")
		version  = fs.String("report-version", "", "build identifier recorded in report provenance")
		nworkers = fs.Int("parallel", runtime.GOMAXPROCS(0), "worker count for experiment sweeps (results are identical for any value)")
		replay   = fs.String("replay", "", "replay a compact trace file (tracegen output) through the MEMCON engine and print its report")
		metrics  = fs.String("metrics", "", `write aggregated run metrics to this file ("-" for stdout)`)
		mformat  = fs.String("metrics-format", "json", "metrics output format: json, prom, or table")
		pprofOn  = fs.String("pprof", "", "serve net/http/pprof on this address while running (e.g. localhost:6060)")
		traceOut = fs.String("trace", "", "write a runtime execution trace to this file (inspect with go tool trace)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if *nworkers < 1 {
		return fmt.Errorf("-parallel must be at least 1, got %d", *nworkers)
	}
	if *fleetN < 0 {
		return fmt.Errorf("-fleet must be non-negative, got %d", *fleetN)
	}
	// A negative or NaN tolerance fails identical cells, an infinite
	// relative one fails equal zeros (Inf·0 is NaN), and an infinite
	// absolute one accepts any drift.
	if !(*tolAbs >= 0) || math.IsInf(*tolAbs, 1) {
		return fmt.Errorf("-tol-abs must be finite and non-negative, got %v", *tolAbs)
	}
	if !(*tolRel >= 0) || math.IsInf(*tolRel, 1) {
		return fmt.Errorf("-tol-rel must be finite and non-negative, got %v", *tolRel)
	}
	if *fleetOut != "" && *exp == "" {
		return fmt.Errorf("-fleet-out requires -exp (one experiment, one log)")
	}
	switch *outFmt {
	case "table", "csv", "json":
	default:
		return fmt.Errorf("unknown -format %q (want table, csv, or json)", *outFmt)
	}
	format, err := obs.ParseFormat(*mformat)
	if err != nil {
		return err
	}
	if *pprofOn != "" {
		bound, stopPprof, err := obs.StartPprof(*pprofOn)
		if err != nil {
			return err
		}
		defer stopPprof()
		fmt.Fprintf(os.Stderr, "memconsim: pprof at http://%s/debug/pprof/\n", bound)
	}
	if *traceOut != "" {
		stopTrace, err := obs.StartTrace(*traceOut)
		if err != nil {
			return err
		}
		defer stopTrace() //nolint:errcheck // flush error surfaced via the file below
	}

	req := experiments.Request{
		Experiment: *exp, Seed: *seed, Scale: *scale,
		SimTimeNs: *simtime, Mixes: *mixes, Fleet: *fleetN,
		Mapping: *mapping, Disturb: *disturb, Version: *version,
	}
	rt := experiments.Runtime{Workers: *nworkers}

	// -metrics attaches the aggregating observer plus the volatile
	// wall-clock collectors (phase timer, pool utilization). Only the
	// latter two vary across runs; the json/prom documents exclude them.
	var reg *obs.Registry
	var phases *obs.PhaseTimer
	var pool *parallel.PoolStats
	if *metrics != "" {
		reg = obs.NewRegistry()
		phases = obs.NewPhaseTimer()
		pool = parallel.NewPoolStats()
		rt.Observer = obs.NewMetrics(reg)
		rt.Phases = phases
		ctx = parallel.ContextWithStats(ctx, pool)
	}

	runErr := func() error {
		switch {
		case *list:
			for _, id := range experiments.IDs() {
				desc, err := experiments.Describe(id)
				if err != nil {
					return fmt.Errorf("describing %s: %w", id, err)
				}
				fmt.Fprintf(out, "%-10s %s\n", id, desc)
			}
			return nil
		case *diffPath != "":
			return runDiff(ctx, out, *diffPath, req, rt, explicit, report.Tolerance{Abs: *tolAbs, Rel: *tolRel})
		case *all:
			return runAll(ctx, out, req, rt, *outFmt, *outDir)
		case *exp != "":
			return runOne(ctx, out, req, rt, *outFmt, *outDir, *fleetOut)
		case *replay != "":
			return runReplay(ctx, out, *replay)
		default:
			fs.Usage()
			return fmt.Errorf("one of -list, -exp, -all, -diff, or -replay is required")
		}
	}()
	if runErr != nil {
		return runErr
	}
	if reg != nil {
		phases.ExportTo(reg)
		pool.ExportTo(reg)
		return writeMetrics(*metrics, out, reg, format)
	}
	return nil
}

// runReplay streams a trace file through the MEMCON engine under the
// default configuration and prints the deterministic report summary.
// The file decodes through trace.Stream without materializing the event
// slice, so memory is O(pages); the replay is CPU-bound, and decoding
// is the larger share of it, since the engine only counts most writes
// (repeats to a settled page).
func runReplay(ctx context.Context, out io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	s, err := trace.NewStream(f)
	if err != nil {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	rep, err := core.RunSource(ctx, s, core.DefaultConfig())
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "trace %s: %d writes over %.2f s, %d pages\n",
		s.Name(), rep.Pril.Writes, float64(rep.Duration)/float64(trace.Second), rep.Pages)
	fmt.Fprintf(out, "  refresh reduction   %.4f (upper bound %.4f)\n",
		rep.RefreshReduction(), rep.UpperBoundReduction())
	fmt.Fprintf(out, "  lo-ref coverage     %.4f\n", rep.LoRefCoverage())
	fmt.Fprintf(out, "  tests               started %d, completed %d, aborted %d\n",
		rep.TestsStarted, rep.TestsCompleted, rep.TestsAborted)
	fmt.Fprintf(out, "  predictions         %d (correct %d, mispredicted %d)\n",
		rep.Pril.Predictions, rep.CorrectTests, rep.MispredictedTests)
	return nil
}

// writeMetrics renders the registry to path ("-" selects the CLI
// output stream).
func writeMetrics(path string, out io.Writer, reg *obs.Registry, format obs.Format) error {
	if path == "-" {
		return reg.Write(out, format)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating metrics file: %w", err)
	}
	if err := reg.Write(f, format); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll executes every experiment. The experiments themselves run
// concurrently (each rendered to its own buffer) and the reports are
// printed in registry order, so the output matches a serial -all run
// byte for byte. Workers inside each experiment are left at 1: the
// -parallel budget is spent across experiments here, not within them.
func runAll(ctx context.Context, out io.Writer, req experiments.Request, rt experiments.Runtime, format, outDir string) error {
	ids := experiments.IDs()
	inner := rt
	inner.Workers = 1
	reports, err := parallel.Map(ctx, len(ids), rt.Workers, func(i int) (string, error) {
		var b strings.Builder
		r := req
		r.Experiment = ids[i]
		if err := runOne(ctx, &b, r, inner, format, outDir, ""); err != nil {
			return "", err
		}
		return b.String(), nil
	})
	if err != nil {
		return err
	}
	for _, r := range reports {
		fmt.Fprint(out, r)
	}
	return nil
}

func runOne(ctx context.Context, out io.Writer, req experiments.Request, rt experiments.Runtime, format, outDir, fleetOut string) error {
	id := req.Experiment
	res, err := experiments.RunRequest(ctx, req, rt)
	if err != nil {
		return fmt.Errorf("running %s: %w", id, err)
	}
	rep := res.Report()
	if outDir != "" {
		if err := writeReport(outDir, id, rep); err != nil {
			return err
		}
	}
	if fleetOut != "" {
		if err := writeCELog(fleetOut, id, res); err != nil {
			return err
		}
	}
	switch format {
	case "csv":
		text, err := rep.CSV()
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		fmt.Fprint(out, text)
	case "json":
		if err := rep.Encode(out); err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
	default:
		fmt.Fprintf(out, "==== %s ====\n%s\n", id, rep.Text())
	}
	return nil
}

// writeCELog captures a fleet run's CE event log in the compact
// streaming format. Only fleet results carry a CE log; asking any other
// experiment for one is a usage error, not a silent no-op.
func writeCELog(path, id string, res *experiments.Result) error {
	if res.CELog == nil {
		return fmt.Errorf("experiment %s produces no CE event log (-fleet-out wants fleet-ce or fleet-risk)", id)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating CE log file: %w", err)
	}
	if err := fleet.WriteLog(f, res.CELog); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeReport stores one experiment's canonical JSON document under dir.
// MkdirAll is idempotent, so concurrent -all workers may race through it
// safely.
func writeReport(dir, id string, rep *report.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := rep.MarshalCanonical()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, id+".json"), b, 0o644)
}

// runDiff re-runs the experiment recorded in a saved report and compares
// the fresh numbers against it. The saved provenance is round-tripped
// through experiments.Request (RequestFromProvenance → Normalize →
// RunRequest), so every input the report records — including any
// provenance field added after this code was written — flows into the
// re-run wholesale instead of being rebuilt field by field; a flag given
// explicitly on the command line still overrides its saved value, so a
// bare `-diff FILE` always re-runs apples-to-apples. -disturb takes the
// same spec form the provenance records (none, para:<p>, prac:<n>), so
// each override flag maps onto exactly one request field.
func runDiff(ctx context.Context, out io.Writer, path string, flags experiments.Request, rt experiments.Runtime, explicit map[string]bool, tol report.Tolerance) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	saved, err := report.Decode(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if saved.Prov.Experiment == "" {
		return fmt.Errorf("%s: report carries no experiment id", path)
	}
	req := experiments.RequestFromProvenance(saved.Prov)
	for flag, apply := range map[string]func(){
		"seed":           func() { req.Seed = flags.Seed },
		"scale":          func() { req.Scale = flags.Scale },
		"simtime":        func() { req.SimTimeNs = flags.SimTimeNs },
		"mixes":          func() { req.Mixes = flags.Mixes },
		"fleet":          func() { req.Fleet = flags.Fleet },
		"mapping":        func() { req.Mapping = flags.Mapping },
		"disturb":        func() { req.Disturb = flags.Disturb },
		"report-version": func() { req.Version = flags.Version },
	} {
		if explicit[flag] {
			apply()
		}
	}
	if err := req.Normalize(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	res, err := experiments.RunRequest(ctx, req, rt)
	if err != nil {
		return fmt.Errorf("re-running %s: %w", req.Experiment, err)
	}
	d := report.Diff(saved, res.Report(), tol)
	fmt.Fprint(out, d.String())
	if !d.Clean() {
		return fmt.Errorf("report %s drifted from %s (%d difference(s))", req.Experiment, path, len(d.Entries))
	}
	return nil
}
