// Command dramtest is the SoftMC-style chip characterization tool: it
// builds a simulated DRAM chip, fills it with a data pattern or a SPEC
// benchmark's content image, keeps it idle for a refresh interval, and
// reports the data-dependent failures observed on read-back.
//
// Usage:
//
//	dramtest -pattern checker-0 [-idle 328] [-seed 42] [-rows 4096]
//	dramtest -content mcf [-idle 328]
//	dramtest -allfail [-idle 328]
//	dramtest -profile [-rounds 2] [-guardband 1.25]
//	dramtest -hammer 60000 [-pattern checker-0]
//	dramtest -patterns        # list pattern names
//
// -hammer runs a read-disturb scan instead of a retention test: every
// victim row's physical aggressors are hammered the given number of
// times per refresh window and the cells that flip under the current
// content (the -pattern fill) are reported. The victim population is
// sampled over the same silicon as the retention model, so the scan is
// deterministic in (-seed, -rows, -mapping).
//
// Observability: -metrics/-metrics-format write aggregated row-failure
// and weak-row counts after the run; -pprof serves live profiles.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"

	"memcon/internal/disturb"
	"memcon/internal/dram"
	"memcon/internal/faults"
	"memcon/internal/obs"
	"memcon/internal/profiler"
	"memcon/internal/softmc"
	"memcon/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "dramtest: %v\n", err)
		os.Exit(1)
	}
}

// run executes the CLI against the given arguments and output stream.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dramtest", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		patterns = fs.Bool("patterns", false, "list available data patterns")
		pattern  = fs.String("pattern", "", "data pattern to test with")
		content  = fs.String("content", "", "SPEC benchmark content to test with")
		allfail  = fs.Bool("allfail", false, "report worst-case (any-pattern) failing rows")
		profile  = fs.Bool("profile", false, "run a RAIDR/REAPER-style profiling campaign and report escapes")
		hammer   = fs.Int64("hammer", 0, "read-disturb scan: hammer every victim row's aggressors this many times per window and report flipped cells")
		rounds   = fs.Int("rounds", 2, "profiling rounds (with -profile)")
		guard    = fs.Float64("guardband", 1.25, "profiling idle-time guardband (with -profile)")
		idleMs   = fs.Int64("idle", 328, "idle time in ms (328 ms = paper's 4 s at 45C)")
		seed     = fs.Int64("seed", 42, "chip seed")
		mapping  = fs.String("mapping", "", "address mapping scheme: "+strings.Join(dram.MappingNames(), ", ")+" (default mapping when empty)")
		rows     = fs.Int("rows", 4096, "rows per bank")
		nworkers = fs.Int("parallel", runtime.NumCPU(), "worker count for the -allfail, -pattern, and -content scans (results are identical for any value)")
		metrics  = fs.String("metrics", "", `write aggregated run metrics to this file ("-" for stdout)`)
		mformat  = fs.String("metrics-format", "json", "metrics output format: json, prom, or table")
		pprofOn  = fs.String("pprof", "", "serve net/http/pprof on this address while running")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nworkers < 1 {
		return fmt.Errorf("-parallel must be at least 1, got %d", *nworkers)
	}
	if *idleMs < 1 || *idleMs > math.MaxInt64/dram.Millisecond {
		return fmt.Errorf("-idle must be between 1 and %d ms, got %d", math.MaxInt64/dram.Millisecond, *idleMs)
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
		fmt.Fprintf(os.Stderr, "dramtest: pprof at http://%s/debug/pprof/\n", bound)
	}

	if *patterns {
		for _, p := range softmc.StandardPatterns(100) {
			fmt.Fprintln(out, p.Name)
		}
		return nil
	}

	geom := dram.DefaultGeometry()
	geom.RowsPerBank = *rows
	tester, model, mod, err := buildChip(geom, uint64(*seed), *mapping)
	if err != nil {
		return err
	}
	tester.SetParallelism(*nworkers)
	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
		tester.SetObserver(obs.NewMetrics(reg))
	}
	idle := dram.Nanoseconds(*idleMs) * dram.Millisecond

	runErr := func() error {
		switch {
		case *hammer > 0:
			name := *pattern
			if name == "" {
				name = "checker-0"
			}
			p, err := findPattern(name)
			if err != nil {
				return err
			}
			return hammerScan(out, mod, model, uint64(*seed), p, *hammer)
		case *profile:
			cfg := profiler.DefaultConfig()
			cfg.Rounds = *rounds
			cfg.Guardband = *guard
			cfg.TargetIdle = idle
			p, err := profiler.Run(tester, geom, cfg)
			if err != nil {
				return err
			}
			rep := profiler.Escapes(p, model, idle)
			fmt.Fprintf(out, "profile: %d runs at %d ms idle (guardband %.2f)\n",
				p.Runs, p.IdleUsed/dram.Millisecond, *guard)
			fmt.Fprintf(out, "  flagged weak rows: %d (%.2f%% of module)\n", rep.ProfiledRows, 100*p.WeakRowFraction())
			fmt.Fprintf(out, "  ground truth:      %d weak rows\n", rep.TrueWeakRows)
			fmt.Fprintf(out, "  ESCAPES:           %d (%.1f%% of truly weak rows)\n", rep.Escapes, 100*rep.EscapeRate())
			fmt.Fprintf(out, "  false alarms:      %d\n", rep.FalseAlarms)
			return nil
		case *allfail:
			frac, err := tester.AllFailFractionParallel(context.Background(), idle, *nworkers)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "rows failing under ANY pattern at %d ms idle: %.2f%%\n", *idleMs, 100*frac)
			return nil
		case *pattern != "":
			p, err := findPattern(*pattern)
			if err != nil {
				return err
			}
			fails, err := tester.RunPattern(p, idle)
			if err != nil {
				return err
			}
			report(out, geom, fails, *idleMs, p.Name)
			return nil
		case *content != "":
			spec, err := workload.ContentByName(*content)
			if err != nil {
				return err
			}
			img := spec.Image(geom.RowsPerBank, geom.ColsPerRow, 0, *seed)
			fails, err := tester.RunContent(img, idle)
			if err != nil {
				return err
			}
			report(out, geom, fails, *idleMs, "content:"+spec.Name)
			return nil
		default:
			fs.Usage()
			return fmt.Errorf("one of -patterns, -pattern, -content, -allfail, -profile, or -hammer is required")
		}
	}()
	if runErr != nil {
		return runErr
	}
	if reg != nil {
		return writeMetrics(*metrics, out, reg, format)
	}
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

func buildChip(geom dram.Geometry, seed uint64, mapping string) (*softmc.Tester, *faults.Model, *dram.Module, error) {
	scr, err := dram.NewMappedScrambler(geom, seed, nil, mapping)
	if err != nil {
		return nil, nil, nil, err
	}
	model, err := faults.NewModel(geom, scr, seed, faults.DefaultParams())
	if err != nil {
		return nil, nil, nil, err
	}
	mod, err := dram.NewModule(geom)
	if err != nil {
		return nil, nil, nil, err
	}
	tester, err := softmc.NewTester(mod, model)
	if err != nil {
		return nil, nil, nil, err
	}
	return tester, model, mod, nil
}

// hammerScan is the -hammer mode: sample the chip's read-disturb victim
// population, fill the module with the pattern, apply the given hammer
// count to every victim row's window, and report the rows and cells
// that flip under the current content.
func hammerScan(out io.Writer, mod *dram.Module, model *faults.Model, seed uint64, p softmc.Pattern, hammer int64) error {
	dm, err := disturb.NewModel(model, seed, disturb.DefaultParams())
	if err != nil {
		return err
	}
	geom := mod.Geometry()
	for b := 0; b < geom.BanksPerChip; b++ {
		for r := 0; r < geom.RowsPerBank; r++ {
			a := dram.RowAddress{Bank: b, Row: r}
			p.Fill(mod.RowRef(a), r)
		}
	}
	w := faults.RowWindow{Hammer: hammer}
	var victims, flippedRows, flippedCells, shown int
	buf := make([]int, 0, 8)
	for b := 0; b < geom.BanksPerChip; b++ {
		rows, thresholds := dm.VictimRows(b)
		victims += len(rows)
		for i, r := range rows {
			a := dram.RowAddress{Bank: b, Row: int(r)}
			buf = dm.AppendFailures(buf[:0], mod, a, w)
			if len(buf) == 0 {
				continue
			}
			flippedRows++
			flippedCells += len(buf)
			if shown < 10 {
				fmt.Fprintf(out, "  bank %d row %5d (HCfirst %d): %d cells %v, aggressors %v\n",
					b, r, thresholds[i], len(buf), buf, dm.Aggressors(a))
				shown++
			}
		}
	}
	if flippedRows > shown {
		fmt.Fprintf(out, "  ... %d more rows\n", flippedRows-shown)
	}
	fmt.Fprintf(out, "hammer %d/window under %s: %d of %d victim rows flip (%d rows total), %d cells\n",
		hammer, p.Name, flippedRows, victims, geom.TotalRows(), flippedCells)
	return nil
}

func findPattern(name string) (softmc.Pattern, error) {
	for _, p := range softmc.StandardPatterns(100) {
		if p.Name == name {
			return p, nil
		}
	}
	return softmc.Pattern{}, fmt.Errorf("unknown pattern %q (see -patterns)", name)
}

func report(out io.Writer, geom dram.Geometry, fails []softmc.RowFailure, idleMs int64, label string) {
	cells := 0
	for _, f := range fails {
		cells += len(f.Cells)
	}
	total := geom.TotalRows()
	fmt.Fprintf(out, "%s @ %d ms idle: %d failing rows of %d (%.2f%%), %d failing cells\n",
		label, idleMs, len(fails), total, 100*float64(len(fails))/float64(total), cells)
	for i, f := range fails {
		if i >= 10 {
			fmt.Fprintf(out, "  ... %d more rows\n", len(fails)-10)
			break
		}
		fmt.Fprintf(out, "  bank %d row %5d: %d cells %v\n", f.Addr.Bank, f.Addr.Row, len(f.Cells), f.Cells)
	}
}
