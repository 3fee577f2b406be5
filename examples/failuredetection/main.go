// Failure detection: characterize a simulated DRAM chip the way the
// paper's SoftMC experiments do — fill with manufacturing data patterns
// and with SPEC program content, idle for a refresh window, read back —
// then run MEMCON's full-fidelity mode on the same chip and verify the
// reliability guarantee (no silent failure escapes). The program exits
// non-zero if any failure escapes.
package main

import (
	"context"
	"fmt"
	"log"

	"memcon"
	"memcon/internal/dram"
	"memcon/internal/softmc"
	"memcon/internal/trace"
	"memcon/internal/workload"
)

func main() {
	geom := memcon.DefaultGeometry()
	geom.RowsPerBank = 1024 // keep the demo snappy
	chip, err := memcon.NewChip(geom, 2024)
	if err != nil {
		log.Fatal(err)
	}

	// Part 1: pattern characterization (Fig. 3 style). The chip's
	// fault-model parameters are scaled to the 64 ms LO-REF window, so
	// characterize at that idle time.
	idle := dram.Nanoseconds(64) * dram.Millisecond
	fmt.Println("pattern characterization (64 ms idle):")
	for _, p := range []softmc.Pattern{
		softmc.SolidPattern(0), softmc.SolidPattern(1),
		softmc.CheckerboardPattern(0), softmc.RowStripePattern(0),
		softmc.RandomPattern(7),
	} {
		fails, err := chip.Tester.RunPattern(p, idle)
		if err != nil {
			log.Fatal(err)
		}
		cells := 0
		for _, f := range fails {
			cells += len(f.Cells)
		}
		fmt.Printf("  %-12s %4d failing rows, %4d failing cells\n", p.Name, len(fails), cells)
	}

	// Part 2: program content excites far fewer failures (Fig. 4 style).
	spec, err := workload.ContentByName("mcf")
	if err != nil {
		log.Fatal(err)
	}
	img := spec.Image(geom.RowsPerBank, geom.ColsPerRow, 0, 1)
	frac, err := chip.Tester.FailingRowFraction(img, idle)
	if err != nil {
		log.Fatal(err)
	}
	all, err := chip.Tester.AllFailFraction(context.Background(), idle)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmcf content: %.2f%% failing rows vs %.2f%% under ANY pattern (%.1fx fewer)\n",
		100*frac, 100*all, all/maxf(frac, 1e-9))

	// Part 3: full-fidelity MEMCON with the reliability audit. Build a
	// fresh chip (the characterization above consumed the clock).
	chip2, err := memcon.NewChip(geom, 2024)
	if err != nil {
		log.Fatal(err)
	}
	reg := memcon.NewRegistry()
	sys, err := memcon.NewSystem(memcon.DefaultConfig(), chip2, memcon.WithObserver(memcon.NewMetrics(reg)))
	if err != nil {
		log.Fatal(err)
	}
	// Two write rounds ten quanta apart: the second changes content next
	// to rows already tested clean, so MEMCON re-tests those rows.
	quantum := 1024 * trace.Millisecond
	tr := &memcon.Trace{Duration: 30 * quantum}
	for p := uint32(0); p < 512; p++ {
		at := trace.Microseconds(p) * 1009
		tr.Events = append(tr.Events, memcon.Event{Page: p, At: at}, memcon.Event{Page: p, At: 10*quantum + at})
	}
	tr.Sort()
	rep, err := sys.Run(tr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nMEMCON online run over %d pages:\n", tr.Pages())
	fmt.Printf("  tests completed: %d, failed (mitigated at HI-REF): %d\n",
		rep.TestsCompleted, rep.TestsFailed)
	fmt.Printf("  neighbour re-tests:            %d\n", reg.Counter("memcon_neighbor_retests_total", "").Value())
	fmt.Printf("  failing cells detected online: %d\n", sys.DetectedFailures())
	fmt.Printf("  SILENT failures escaped:       %d (guarantee: 0)\n", sys.UndetectedFailures())
	fmt.Printf("  refresh reduction achieved:    %.1f%%\n", 100*rep.RefreshReduction())
	if n := sys.UndetectedFailures(); n > 0 {
		log.Fatalf("reliability guarantee broken: %d failing cells escaped", n)
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
