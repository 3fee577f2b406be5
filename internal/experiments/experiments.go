// Package experiments regenerates every table and figure of the MEMCON
// paper's evaluation. Each experiment is a typed runner producing a
// structured report.Report — provenance header plus typed tables — from
// which the text, CSV, and JSON renderings all derive. The DESIGN.md
// per-experiment index maps experiment ids to paper artifacts;
// cmd/memconsim dispatches on the same ids.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"memcon/internal/report"
)

// Result is the outcome of one experiment, rendered through its typed
// report. The interface is sealed — result types live in this package
// and embed resultMeta, which lets the dispatcher stamp provenance
// after the run.
type Result interface {
	// Report builds the structured result document. The provenance
	// header is populated when the result came from RunRequest;
	// results built by calling a runner directly carry empty provenance.
	Report() *report.Report
	setProvenance(report.Provenance)
}

// resultMeta carries the provenance the dispatcher stamps onto every
// result. Result types embed it (by value) to satisfy Result.
type resultMeta struct {
	prov report.Provenance
}

func (m *resultMeta) setProvenance(p report.Provenance) { m.prov = p }

// provenance returns the stamped provenance for Report builders.
func (m *resultMeta) provenance() report.Provenance { return m.prov }

// Runner executes one experiment and returns its typed result. It
// receives the request after Normalize, so every field is valid and
// canonical; fan-out loops pass rt.Workers to parallel.Map as is.
type Runner func(ctx context.Context, req Request, rt Runtime) (Result, error)

// entry pairs a runner with its registry description. fleet marks
// experiments whose numbers depend on Request.Fleet — only those stamp
// the fleet size into provenance, so single-module reports stay
// byte-identical to their pre-fleet form.
type entry struct {
	runner Runner
	desc   string
	fleet  bool
}

// registry maps experiment ids to runners. Ids follow the paper's
// figure/table numbering.
var registry = map[string]entry{
	"table1": {RunTable1, "Table 1: evaluated long-running workloads", false},
	"fig3":   {RunFig3, "Fig. 3: cells failing conditionally on data pattern", false},
	"fig4":   {RunFig4, "Fig. 4: failing rows, program content vs all-pattern", false},
	"fig6":   {RunFig6, "Fig. 6: accumulated cost and MinWriteInterval", false},
	"fig7":   {RunFig7, "Fig. 7: write-interval distributions", false},
	"fig8":   {RunFig8, "Fig. 8: Pareto fit of write intervals", false},
	"fig9":   {RunFig9, "Fig. 9: execution time in long write intervals", false},
	"fig11":  {RunFig11, "Fig. 11: P(RIL>1024ms) vs current interval length", false},
	"fig12":  {RunFig12, "Fig. 12: prediction coverage vs current interval length", false},
	"fig14":  {RunFig14, "Fig. 14: refresh reduction with MEMCON", false},
	"fig15":  {RunFig15, "Fig. 15: speedup over 16 ms baseline", false},
	"table3": {RunTable3, "Table 3: performance loss from concurrent testing", false},
	"fig16":  {RunFig16, "Fig. 16: comparison with other refresh mechanisms", false},
	"fig17":  {RunFig17, "Fig. 17: execution-time coverage of PRIL (LO-REF)", false},
	"fig18":  {RunFig18, "Fig. 18: time on refresh and testing vs baseline", false},
	"fig19":  {RunFig19, "Fig. 19: sensitivity to halved write intervals", false},
	"minwi":  {RunAppendix, "Appendix: DDR3-1600 latency building blocks", false},
	"fleet-ce": {RunFleetCE,
		"Fleet: correctable-error log and bank fault clustering", true},
	"fleet-risk": {RunFleetRisk,
		"Fleet: early-CE features and UE risk prediction", true},
}

// mappedExperiments marks the experiments whose numbers depend on the
// chip address mapping — the ones that build scramblers (directly or
// via newChip). Only these stamp Request.Mapping into provenance and
// cache keys; for every other id Normalize zeroes the field, so
// trace-driven and analytical reports stay byte-identical to their
// pre-mapping form no matter what -mapping the caller passed.
var mappedExperiments = map[string]bool{
	"fig3":      true,
	"fig4":      true,
	"vrt":       true,
	"profile":   true,
	"abl-remap": true,
	"motiv":     true,
}

// disturbExperiments marks the experiments whose numbers depend on the
// RowHammer mitigation spec — the read-disturb co-simulations registered
// in disturbexp.go. Only these stamp Request.Disturb into provenance and
// cache keys; for every other id Normalize zeroes the field, so all
// pre-disturb reports and cache keys stay byte-identical no matter what
// -disturb the caller passed.
var disturbExperiments = map[string]bool{
	"disturb-exposure":   true,
	"disturb-mitigation": true,
}

// IDs returns the registered experiment ids, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Describe returns the one-line description of an experiment id.
func Describe(id string) (string, error) {
	e, ok := registry[id]
	if !ok {
		return "", fmt.Errorf("experiments: unknown experiment %q", id)
	}
	return e.desc, nil
}

func pct(x float64) string  { return fmt.Sprintf("%.1f%%", 100*x) }
func pct2(x float64) string { return fmt.Sprintf("%.2f%%", 100*x) }
func itoa(v int) string     { return fmt.Sprintf("%d", v) }
