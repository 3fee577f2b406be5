package experiments

import (
	"context"
	"fmt"
	"math"

	"memcon/internal/fleet"
	"memcon/internal/report"
)

// The fleet experiments scale the single-module characterization out to
// a deployment: fleet-ce answers "what failed" (the CE event log and
// its AMD-style per-bank clustering), fleet-risk answers "what next"
// (early-CE features scored against the recorded UE ground truth).
// Both run the same deterministic simulation, so a combined study pays
// for it twice only in CPU, never in divergent numbers.

// runFleetSim executes the shared fleet simulation for the request.
func runFleetSim(ctx context.Context, req Request, workers int) (*fleet.Log, *fleet.Analytics, error) {
	log, err := fleet.Run(ctx, fleet.Config{
		Modules: req.Fleet,
		Seed:    req.Seed,
		Scale:   req.Scale,
		Workers: workers,
	})
	if err != nil {
		return nil, nil, err
	}
	return log, fleet.Analyze(log), nil
}

// runFleetCE reproduces the field-study view of the fleet: it
// simulates the fleet and reports the raw correctable-error log's
// headline counts, the class census, the noisiest banks, and the
// per-module ground truth (quiet modules hidden from the text
// rendering, still diffed). The second return is the CE event log.
func runFleetCE(ctx context.Context, req Request, rt Runtime) (*report.Report, *fleet.Log, error) {
	log, an, err := runFleetSim(ctx, req, rt.Workers)
	if err != nil {
		return nil, nil, err
	}
	rep := report.New()
	weeks := int64(log.Epochs) * log.EpochNs / (7 * 24 * 3600 * 1_000_000_000)
	rep.Textf("Fleet CE study — %d modules observed for %d weekly scrub epochs (%d weeks)\n\n",
		log.Modules, log.Epochs, weeks)
	rep.Textf("correctable errors: %d raw, %d distinct cells (max %d reports of one cell)\n\n",
		an.Events, an.UniqueCells, an.MaxRepeat)

	classes := report.NewTable("classes",
		report.CStr("class", ""),
		report.CInt("banks", "", "banks"))
	for i, name := range fleet.ClassNames() {
		classes.Add(report.S(name), report.I(int64(an.ClassCounts[i])))
	}
	rep.AddTable(classes)
	rep.Textf("\n")

	banks := report.NewTable("banks",
		report.CStr("bank", ""),
		report.CInt("events", "", "CEs"),
		report.CInt("unique", "", "cells"),
		report.CInt("rows", "", "rows"),
		report.CInt("cols", "", "cols"),
		report.CInt("max_row_span", "row span", "cells"),
		report.CInt("max_col_span", "col span", "cells"),
		report.CStr("class", ""))
	for i, bc := range an.Banks {
		cells := []report.Cell{
			report.S(fmt.Sprintf("m%d/r%d/b%d", bc.Key.Module, bc.Key.Rank, bc.Key.Bank)),
			report.I(int64(bc.Events)), report.I(int64(bc.Unique)),
			report.I(int64(bc.Rows)), report.I(int64(bc.Cols)),
			report.I(int64(bc.MaxRowSpan)), report.I(int64(bc.MaxColSpan)),
			report.S(bc.Class),
		}
		// Banks arrive in key order; print the first screenful, keep
		// the rest diffable.
		if i < 16 {
			banks.Add(cells...)
		} else {
			banks.AddHidden(cells...)
		}
	}
	rep.AddTable(banks)
	rep.Textf("\n")

	modules := report.NewTable("modules",
		report.CStr("module", ""),
		report.CStr("class", ""),
		report.CStr("content", ""),
		report.CFloat("weak_scale", "weak x", "ratio"),
		report.CInt("ces", "CEs", "events"),
		report.CInt("ue_epoch", "UE epoch", "epoch"))
	for _, info := range log.Info {
		ueEpoch := int64(-1)
		if info.UEAtNs >= 0 {
			ueEpoch = info.UEAtNs / log.EpochNs
		}
		cells := []report.Cell{
			report.S(fmt.Sprintf("m%d", info.Module)),
			report.S(info.Class), report.S(info.Content),
			report.F(info.WeakScale, fmt.Sprintf("%.2f", info.WeakScale)),
			report.I(int64(info.CEs)), report.I(ueEpoch),
		}
		// Text shows the modules with a story: errors or a UE.
		if info.CEs > 0 || info.UEAtNs >= 0 {
			modules.Add(cells...)
		} else {
			modules.AddHidden(cells...)
		}
	}
	rep.AddTable(modules)
	return rep, log, nil
}

// rate renders a possibly-undefined ratio as a report cell: NaN (no
// positive predictions or labels) becomes the finite sentinel -1
// displayed "n/a", keeping the JSON encoding valid.
func rate(v float64) report.Cell {
	if math.IsNaN(v) {
		return report.F(-1, "n/a")
	}
	return report.F(v, fmt.Sprintf("%.3f", v))
}

// runFleetRisk reproduces the "First CE Matters" study over the fleet:
// it simulates the fleet and reports the prediction scoreboard — the
// confusion matrix of deterministic risk scores against the UE ground
// truth — plus the per-module early-CE feature table (quiet, unflagged
// modules hidden from the text rendering, still diffed). The second
// return is the CE event log.
func runFleetRisk(ctx context.Context, req Request, rt Runtime) (*report.Report, *fleet.Log, error) {
	log, an, err := runFleetSim(ctx, req, rt.Workers)
	if err != nil {
		return nil, nil, err
	}
	rep := report.New()
	rep.Textf("Fleet UE-risk study — %d modules, features from the first %d of %d epochs\n\n",
		log.Modules, an.EarlyEpochs, log.Epochs)

	scoreboard := report.NewTable("scoreboard",
		report.CInt("tp", "TP", "modules"),
		report.CInt("fp", "FP", "modules"),
		report.CInt("fn", "FN", "modules"),
		report.CInt("tn", "TN", "modules"),
		report.CFloat("precision", "", "fraction"),
		report.CFloat("recall", "", "fraction"),
		report.CInt("mean_lead_ns", "mean lead", "ns"))
	m := an.Matrix
	scoreboard.Add(
		report.I(int64(m.TP)), report.I(int64(m.FP)),
		report.I(int64(m.FN)), report.I(int64(m.TN)),
		rate(m.Precision()), rate(m.Recall()),
		report.Id(an.MeanLeadNs, leadText(an.MeanLeadNs, log.EpochNs)))
	rep.AddTable(scoreboard)
	rep.Textf("\n")

	risks := report.NewTable("risk",
		report.CStr("module", ""),
		report.CInt("first_ce_ns", "first CE", "ns"),
		report.CInt("early_ces", "early CEs", "events"),
		report.CInt("early_unique", "unique", "cells"),
		report.CInt("early_repeats", "repeats", "events"),
		report.CInt("early_row_span", "row span", "cells"),
		report.CInt("early_col_span", "col span", "cells"),
		report.CFloat("score", "", "probability"),
		report.CStr("verdict", ""))
	for _, mr := range an.Risk {
		cells := []report.Cell{
			report.S(fmt.Sprintf("m%d", mr.Module)),
			report.I(mr.FirstCEAtNs),
			report.I(int64(mr.EarlyCEs)), report.I(int64(mr.EarlyUnique)),
			report.I(int64(mr.EarlyRepeats)),
			report.I(int64(mr.EarlyMaxRowSpan)), report.I(int64(mr.EarlyMaxColSpan)),
			report.F(mr.Score, fmt.Sprintf("%.3f", mr.Score)),
			report.S(verdict(mr)),
		}
		// Text shows the modules with any early signal, the predictor's
		// picks, and every ground-truth UE — the first screenful; the
		// quiet rest stays diffable.
		if (mr.Predicted || mr.UEAtNs >= 0 || mr.EarlyCEs > 0) && risks.VisibleRows() < 16 {
			risks.Add(cells...)
		} else {
			risks.AddHidden(cells...)
		}
	}
	rep.AddTable(risks)
	return rep, log, nil
}

// leadText renders the mean prediction lead in epochs.
func leadText(leadNs, epochNs int64) string {
	if leadNs < 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f epochs", float64(leadNs)/float64(epochNs))
}

// verdict names a module's prediction outcome for the text table.
func verdict(r fleet.ModuleRisk) string {
	ue := r.UEAtNs >= 0
	switch {
	case r.FailedEarly:
		return "failed-early"
	case r.Predicted && ue:
		return "hit"
	case r.Predicted:
		return "false-alarm"
	case ue:
		return "miss"
	default:
		return "quiet"
	}
}
