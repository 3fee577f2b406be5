// Command tracegen generates and inspects MEMCON write traces.
//
// Usage:
//
//	tracegen -list
//	tracegen -app Netflix -out netflix.trace [-scale 1.0] [-seed 1] [-reads]
//	tracegen -inspect netflix.trace
//	tracegen -head 10 netflix.trace
//
// Traces are written in the compact (v2) delta/varint format, the only
// trace file format. -head streams the first N events of a trace file
// without materializing it: the file decodes incrementally, so peeking
// at a multi-GB trace touches only its leading bytes. A file in the
// retired fixed-width v1 format is rejected; regenerate it with -app
// (a trace depends only on the app, -seed and -scale).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"memcon/internal/stats"
	"memcon/internal/trace"
	"memcon/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
}

// run executes the CLI against the given arguments and output stream.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		list    = fs.Bool("list", false, "list available applications")
		app     = fs.String("app", "", "application to generate")
		outPath = fs.String("out", "", "output trace file")
		inspect = fs.String("inspect", "", "trace file to inspect")
		scale   = fs.Float64("scale", 1.0, "page-count scale in (0,1]")
		seed    = fs.Int64("seed", 1, "random seed")
		reads   = fs.Bool("reads", false, "generate the READ trace instead of writes")
		head    = fs.Int("head", 0, "print the first N events of the trace file argument (streams; no materialization)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *list:
		for _, a := range workload.Apps() {
			fmt.Fprintf(out, "%-16s %-18s %6.1f s  %4.1f GB  %d pages\n",
				a.Name, a.Type, a.DurationSec, a.MemGB, a.Pages)
		}
		return nil
	case *app != "":
		spec, err := workload.AppByName(*app)
		if err != nil {
			return err
		}
		if *outPath == "" {
			return fmt.Errorf("-out is required with -app")
		}
		if !(*scale > 0 && *scale <= 1) { // written so that NaN fails too
			return fmt.Errorf("-scale %v out of range (0,1]", *scale)
		}
		var tr *trace.Trace
		if *reads {
			tr = spec.GenerateReads(*seed, *scale)
		} else {
			tr = spec.Generate(*seed, *scale)
		}
		f, err := os.Create(*outPath)
		if err != nil {
			return fmt.Errorf("creating %s: %w", *outPath, err)
		}
		defer f.Close()
		if err := tr.WriteCompact(f); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(out, "wrote %s: %d events, %d pages, %.1f s\n",
			*outPath, len(tr.Events), tr.Pages(), float64(tr.Duration)/float64(trace.Second))
		return nil
	case *inspect != "":
		f, err := os.Open(*inspect)
		if err != nil {
			return fmt.Errorf("opening %s: %w", *inspect, err)
		}
		defer f.Close()
		tr, err := trace.ReadCompact(f)
		if err != nil {
			return fmt.Errorf("reading %s: %w", *inspect, err)
		}
		describe(out, tr)
		return nil
	case *head > 0:
		if fs.NArg() != 1 {
			return fmt.Errorf("-head needs exactly one trace file argument")
		}
		return printHead(out, fs.Arg(0), *head)
	default:
		fs.Usage()
		return fmt.Errorf("one of -list, -app, -inspect, or -head is required")
	}
}

// printHead prints the first n events of a trace file. The file
// decodes through trace.Stream, so only its leading bytes are read.
func printHead(out io.Writer, path string, n int) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("opening %s: %w", path, err)
	}
	defer f.Close()
	s, err := trace.NewStream(f)
	if err != nil {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	fmt.Fprintf(out, "trace %q: %.1f s, %d events\n",
		s.Name(), float64(s.Duration())/float64(trace.Second), s.Events())
	for i := 0; i < n; i++ {
		ev, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
		fmt.Fprintf(out, "%10d µs  page %d\n", ev.At, ev.Page)
	}
	return nil
}

func describe(out io.Writer, tr *trace.Trace) {
	fmt.Fprintf(out, "trace %q: %d events, %d pages, %.1f s\n",
		tr.Name, len(tr.Events), tr.Pages(), float64(tr.Duration)/float64(trace.Second))
	h := stats.NewLogHistogram(1, 16)
	for _, iv := range tr.Intervals(true) {
		h.Add(iv)
	}
	fmt.Fprintln(out, "\nwrite-interval distribution (ms buckets):")
	fmt.Fprint(out, h.String())
	fmt.Fprintf(out, "\nintervals >= 1024 ms: %.3f%% of count, %.1f%% of time\n",
		100*h.FractionAtOrAbove(1024), 100*h.WeightFractionAtOrAbove(1024))
}
