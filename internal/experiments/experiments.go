// Package experiments regenerates every table and figure of the MEMCON
// paper's evaluation. Each experiment id has a runner that builds its
// report.Report directly — provenance header plus typed tables, from
// which the text, CSV, and JSON renderings all derive. The report is
// the run's only result representation: callers render, cache and diff
// it, and tests read its cells by table key, column and row label. The
// DESIGN.md per-experiment index maps experiment ids to paper
// artifacts; cmd/memconsim dispatches on the same ids.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"memcon/internal/fleet"
	"memcon/internal/report"
)

// Result is the outcome of one experiment run: its report, plus the CE
// event log of a fleet experiment.
type Result struct {
	rep *report.Report
	// CELog is the CE event log a fleet-ce or fleet-risk run simulated
	// (memconsim -fleet-out writes it); nil for every other experiment.
	CELog *fleet.Log
}

// Report returns the run's report, its provenance stamped by
// RunRequest.
func (r *Result) Report() *report.Report { return r.rep }

// Runner executes one experiment and returns its report. It receives
// the request after Normalize, so every field is valid and canonical;
// fan-out loops pass rt.Workers to parallel.Map as is. The report
// leaves its provenance empty: RunRequest stamps it.
type Runner func(ctx context.Context, req Request, rt Runtime) (*report.Report, error)

// entry pairs a runner with its registry description. fleet, set only
// for the fleet experiments, runs in place of runner and also returns
// the CE event log. Only those experiments' numbers depend on
// Request.Fleet, so only they stamp the fleet size into provenance, and
// single-module reports stay byte-identical to their pre-fleet form.
type entry struct {
	runner Runner
	desc   string
	fleet  func(ctx context.Context, req Request, rt Runtime) (*report.Report, *fleet.Log, error)
}

// registry maps experiment ids to runners. Ids follow the paper's
// figure/table numbering.
var registry = map[string]entry{
	"table1": {RunTable1, "Table 1: evaluated long-running workloads", nil},
	"fig3":   {RunFig3, "Fig. 3: cells failing conditionally on data pattern", nil},
	"fig4":   {RunFig4, "Fig. 4: failing rows, program content vs all-pattern", nil},
	"fig6":   {RunFig6, "Fig. 6: accumulated cost and MinWriteInterval", nil},
	"fig7":   {RunFig7, "Fig. 7: write-interval distributions", nil},
	"fig8":   {RunFig8, "Fig. 8: Pareto fit of write intervals", nil},
	"fig9":   {RunFig9, "Fig. 9: execution time in long write intervals", nil},
	"fig11":  {RunFig11, "Fig. 11: P(RIL>1024ms) vs current interval length", nil},
	"fig12":  {RunFig12, "Fig. 12: prediction coverage vs current interval length", nil},
	"fig14":  {RunFig14, "Fig. 14: refresh reduction with MEMCON", nil},
	"fig15":  {RunFig15, "Fig. 15: speedup over 16 ms baseline", nil},
	"table3": {RunTable3, "Table 3: performance loss from concurrent testing", nil},
	"fig16":  {RunFig16, "Fig. 16: comparison with other refresh mechanisms", nil},
	"fig17":  {RunFig17, "Fig. 17: execution-time coverage of PRIL (LO-REF)", nil},
	"fig18":  {RunFig18, "Fig. 18: time on refresh and testing vs baseline", nil},
	"fig19":  {RunFig19, "Fig. 19: sensitivity to halved write intervals", nil},
	"minwi":  {RunAppendix, "Appendix: DDR3-1600 latency building blocks", nil},
	"fleet-ce": {nil,
		"Fleet: correctable-error log and bank fault clustering", RunFleetCE},
	"fleet-risk": {nil,
		"Fleet: early-CE features and UE risk prediction", RunFleetRisk},
}

// mappedExperiments marks the experiments whose numbers depend on the
// chip address mapping — the ones that build scramblers (directly or
// via chipModel). Only these stamp Request.Mapping into provenance and
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
