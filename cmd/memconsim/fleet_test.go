package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memcon/internal/fleet"
	"memcon/internal/report"
)

// TestFleetOutWritesDecodableLog pins the -fleet-out path: the file is
// a valid compact CE log whose shape matches the run the report
// describes, and it is byte-identical for any -parallel value.
func TestFleetOutWritesDecodableLog(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "fleet.celog")
	var out strings.Builder
	args := append([]string{"-exp", "fleet-ce", "-out", dir, "-fleet-out", logPath}, goldenArgs...)
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	log, err := fleet.ReadLog(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("decoding -fleet-out file: %v", err)
	}
	rep := decodeFile(t, filepath.Join(dir, "fleet-ce.json"))
	if log.Modules != rep.Prov.Fleet {
		t.Errorf("log has %d modules, report provenance says %d", log.Modules, rep.Prov.Fleet)
	}
	if len(log.Events) == 0 {
		t.Error("captured CE log is empty")
	}

	for _, n := range []string{"4", "8"} {
		p := filepath.Join(dir, "fleet"+n+".celog")
		if err := run(context.Background(), append([]string{"-exp", "fleet-ce", "-fleet-out", p, "-parallel", n}, goldenArgs...), &out); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, raw) {
			t.Errorf("-fleet-out file differs between -parallel 1 and -parallel %s", n)
		}
	}
}

// TestFleetDiff exercises the fleet save/verify loop: a bare -diff
// re-runs with the saved fleet size and comes back clean, injected
// drift in the risk numbers fails, and a fleet-size mismatch — whether
// a tampered provenance or an explicit -fleet override — gates rather
// than comparing incomparable runs.
func TestFleetDiff(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run(context.Background(), append([]string{"-exp", "fleet-risk", "-out", dir}, goldenArgs...), &out); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "fleet-risk.json")

	out.Reset()
	if err := run(context.Background(), []string{"-diff", path}, &out); err != nil {
		t.Fatalf("clean diff failed: %v\n%s", err, out.String())
	}

	// Drift one float cell (a risk score or a scoreboard rate).
	rep := decodeFile(t, path)
	drifted := false
search:
	for _, tab := range rep.Tables() {
		for ri := range tab.Rows {
			for ci := range tab.Rows[ri].Cells {
				c := &tab.Rows[ri].Cells[ci]
				if c.Kind == report.KindFloat {
					c.Float += 0.001
					drifted = true
					break search
				}
			}
		}
	}
	if !drifted {
		t.Fatal("fleet report has no float cells to drift")
	}
	bad := filepath.Join(dir, "drifted.json")
	encodeFile(t, bad, rep)
	out.Reset()
	if err := run(context.Background(), []string{"-diff", bad}, &out); err == nil {
		t.Errorf("injected drift not detected:\n%s", out.String())
	}

	// A tampered fleet size re-runs at the tampered size; the numbers
	// (and the provenance echo) must not diff clean against the saved
	// 8-module run.
	rep = decodeFile(t, path)
	rep.Prov.Fleet++
	tampered := filepath.Join(dir, "tampered.json")
	encodeFile(t, tampered, rep)
	out.Reset()
	if err := run(context.Background(), []string{"-diff", tampered, "-tol-abs", "1e9", "-tol-rel", "1"}, &out); err == nil {
		t.Errorf("fleet-size tamper not detected:\n%s", out.String())
	}

	// An explicit -fleet override beats the saved provenance and gates.
	out.Reset()
	if err := run(context.Background(), []string{"-diff", path, "-fleet", "16"}, &out); err == nil {
		t.Errorf("-fleet override diffed clean against a different fleet size:\n%s", out.String())
	} else if !strings.Contains(out.String(), "provenance.fleet") {
		t.Errorf("override diff did not name provenance.fleet:\n%s", out.String())
	}
}

// TestFleetOutUsageErrors pins the -fleet-out preconditions: it needs
// -exp, and the experiment must actually produce a CE log.
func TestFleetOutUsageErrors(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-all", "-fleet-out", "x.celog"}, &out); err == nil ||
		!strings.Contains(err.Error(), "-fleet-out requires -exp") {
		t.Errorf("-all with -fleet-out: err = %v", err)
	}
	if err := run(context.Background(), []string{"-exp", "minwi", "-fleet-out", filepath.Join(t.TempDir(), "x.celog")}, &out); err == nil ||
		!strings.Contains(err.Error(), "no CE event log") {
		t.Errorf("-fleet-out on non-fleet experiment: err = %v", err)
	}
	if err := run(context.Background(), []string{"-exp", "fleet-ce", "-fleet", "-1"}, &out); err == nil ||
		!strings.Contains(err.Error(), "-fleet must be non-negative") {
		t.Errorf("negative -fleet: err = %v", err)
	}
}

// TestFleetTextParallelInvariant pins the CLI-level determinism
// contract for the fleet experiments' text rendering.
func TestFleetTextParallelInvariant(t *testing.T) {
	assertParallelInvariant(t, append([]string{"-exp", "fleet-ce"}, goldenArgs...)...)
	assertParallelInvariant(t, append([]string{"-exp", "fleet-risk"}, goldenArgs...)...)
}
