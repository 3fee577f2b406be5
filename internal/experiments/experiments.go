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

// runner executes one experiment and returns its report. It receives
// the request after Normalize, so every field is valid and canonical;
// fan-out loops pass rt.Workers to parallel.Map as is. The report
// leaves its provenance empty: RunRequest stamps it.
type runner func(ctx context.Context, req Request, rt Runtime) (*report.Report, error)

// inputs is the set of optional Request inputs an experiment's numbers
// depend on. Normalize zeroes every optional input outside the set, so
// an experiment's provenance and cache key never carry an input its
// numbers ignore, and reports from before that input existed stay
// byte-identical no matter what the caller passed.
type inputs uint8

const (
	// readsMapping marks the experiments that build chips through the
	// mapped scrambler (directly or via chipModel): Request.Mapping
	// moves their numbers.
	readsMapping inputs = 1 << iota
	// readsDisturb marks the read-disturb co-simulations:
	// Request.Disturb moves their numbers.
	readsDisturb
)

// entry is one experiment id's registration: its runner, its title and
// the optional inputs it reads. fleet, set only for the fleet
// experiments, runs in place of run and also returns the CE event log;
// only those experiments read Request.Fleet, so only they stamp the
// fleet size into provenance.
type entry struct {
	run    runner
	fleet  func(ctx context.Context, req Request, rt Runtime) (*report.Report, *fleet.Log, error)
	title  string
	inputs inputs
}

// registry declares every experiment id, once. Ids follow the paper's
// figure/table numbering; the ablations and extensions follow.
var registry = map[string]entry{
	"table1":     {run: runTable1, title: "Table 1: evaluated long-running workloads"},
	"fig3":       {run: runFig3, title: "Fig. 3: cells failing conditionally on data pattern", inputs: readsMapping},
	"fig4":       {run: runFig4, title: "Fig. 4: failing rows, program content vs all-pattern", inputs: readsMapping},
	"fig6":       {run: runFig6, title: "Fig. 6: accumulated cost and MinWriteInterval"},
	"fig7":       {run: runFig7, title: "Fig. 7: write-interval distributions"},
	"fig8":       {run: runFig8, title: "Fig. 8: Pareto fit of write intervals"},
	"fig9":       {run: runFig9, title: "Fig. 9: execution time in long write intervals"},
	"fig11":      {run: runFig11, title: "Fig. 11: P(RIL>1024ms) vs current interval length"},
	"fig12":      {run: runFig12, title: "Fig. 12: prediction coverage vs current interval length"},
	"fig14":      {run: runFig14, title: "Fig. 14: refresh reduction with MEMCON"},
	"fig15":      {run: runFig15, title: "Fig. 15: speedup over 16 ms baseline"},
	"table3":     {run: runTable3, title: "Table 3: performance loss from concurrent testing"},
	"fig16":      {run: runFig16, title: "Fig. 16: comparison with other refresh mechanisms"},
	"fig17":      {run: runFig17, title: "Fig. 17: execution-time coverage of PRIL (LO-REF)"},
	"fig18":      {run: runFig18, title: "Fig. 18: time on refresh and testing vs baseline"},
	"fig19":      {run: runFig19, title: "Fig. 19: sensitivity to halved write intervals"},
	"minwi":      {run: runAppendix, title: "Appendix: DDR3-1600 latency building blocks"},
	"motiv":      {run: runMotivation, title: "Motivation (paper sec. 2): naive system-level neighbour testing misses failures", inputs: readsMapping},
	"abl-buffer": {run: runAblBuffer, title: "Ablation: PRIL write-buffer capacity (overflow -> HI-REF)"},
	"abl-accel":  {run: runAblAccel, title: "Ablation: Copy-and-Compare acceleration (RowClone / in-DRAM compare)"},
	"abl-pril":   {run: runAblPril, title: "Ablation: buffer-based vs bitmap PRIL implementation"},
	"abl-remap":  {run: runAblRemap, title: "Ablation: remap mitigation for always-failing rows (full-fidelity system)", inputs: readsMapping},
	"profile":    {run: runProfile, title: "Profiling: RAIDR/REAPER-style campaign vs ground truth across guardbands", inputs: readsMapping},
	"vrt":        {run: runVRT, title: "Extension: variable retention time — online testing vs one-shot profiling", inputs: readsMapping},
	"energy":     {run: runEnergy, title: "Extension: DRAM energy by refresh mechanism (the paper claims, we quantify)"},
	"loop":       {run: runClosedLoop, title: "Closed loop: simulate a system, capture its bus trace (HMTT-style), feed MEMCON"},
	// Both disturb experiments build chips through the mapped
	// scrambler, so the mapping changes which rows neighbour which.
	"disturb-exposure":   {run: runDisturbExposure, title: "Extension: read-disturb exposure census by refresh class", inputs: readsMapping | readsDisturb},
	"disturb-mitigation": {run: runDisturbMitigation, title: "Extension: RowHammer mitigation overhead vs blast radius", inputs: readsMapping | readsDisturb},
	"fleet-ce":           {fleet: runFleetCE, title: "Fleet: correctable-error log and bank fault clustering"},
	"fleet-risk":         {fleet: runFleetRisk, title: "Fleet: early-CE features and UE risk prediction"},
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
	return e.title, nil
}

func pct(x float64) string  { return fmt.Sprintf("%.1f%%", 100*x) }
func pct2(x float64) string { return fmt.Sprintf("%.2f%%", 100*x) }
func itoa(v int) string     { return fmt.Sprintf("%d", v) }
