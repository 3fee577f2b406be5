package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memcon/internal/report"
)

// goldenArgs are the small-scale settings the committed artifacts
// (testdata/golden_all.txt and ../../testdata/reports/) were generated
// with.
var goldenArgs = []string{"-scale", "0.05", "-simtime", "200000", "-mixes", "3"}

// TestGoldenAllOutput pins the full -all text rendering byte for byte
// against the output captured before the typed-report refactor: the
// generic renderer must reproduce every hand-rolled table exactly.
func TestGoldenAllOutput(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_all.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got := runString(t, append([]string{"-all", "-parallel", "4"}, goldenArgs...)...)
	if got != string(want) {
		t.Errorf("-all output drifted from testdata/golden_all.txt (%d vs %d bytes); regenerate with `make reports` only for intended changes", len(got), len(want))
	}
}

// TestJSONFormat pins the -format json path: the document decodes and
// carries the experiment's provenance.
func TestJSONFormat(t *testing.T) {
	got := runString(t, "-exp", "minwi", "-format", "json")
	rep, err := report.DecodeBytes([]byte(got))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Prov.Experiment != "minwi" {
		t.Errorf("provenance experiment = %q", rep.Prov.Experiment)
	}
}

// TestOutAndDiff exercises the save/verify loop: -out writes the
// canonical document, a bare -diff against it re-runs with the saved
// inputs and comes back clean, and injected numeric drift fails with a
// non-zero exit unless a tolerance absorbs it.
func TestOutAndDiff(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run(context.Background(), append([]string{"-exp", "fig4", "-out", dir}, goldenArgs...), &out); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "fig4.json")

	// Clean diff: note the inputs come from the saved provenance, not
	// from flags.
	out.Reset()
	if err := run(context.Background(), []string{"-diff", path}, &out); err != nil {
		t.Fatalf("clean diff failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "no differences") {
		t.Errorf("clean diff output: %q", out.String())
	}

	// Inject numeric drift into the first float cell.
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
		t.Fatal("report has no float cells to drift")
	}
	bad := filepath.Join(dir, "drifted.json")
	encodeFile(t, bad, rep)
	out.Reset()
	if err := run(context.Background(), []string{"-diff", bad}, &out); err == nil {
		t.Errorf("injected drift not detected:\n%s", out.String())
	} else if !strings.Contains(err.Error(), "drifted") {
		t.Errorf("drift error = %v", err)
	}

	// A generous tolerance absorbs the float drift.
	out.Reset()
	if err := run(context.Background(), []string{"-diff", bad, "-tol-abs", "0.01"}, &out); err != nil {
		t.Errorf("tolerance did not absorb drift: %v\n%s", err, out.String())
	}
}

// TestDiffRoundTripsProvenance is the default-drift regression for the
// -diff path: the re-run is built by round-tripping the SAVED provenance
// through experiments.Request, so inputs that are easy to drop when
// rebuilding options field by field — an explicit zero seed, the
// version string — must survive a bare `-diff FILE` untouched.
func TestDiffRoundTripsProvenance(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	args := append([]string{"-exp", "fig4", "-seed", "0", "-report-version", "rt-v9", "-out", dir}, goldenArgs...)
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "fig4.json")
	saved := decodeFile(t, path)
	if saved.Prov.Seed != 0 || saved.Prov.Version != "rt-v9" {
		t.Fatalf("saved provenance = %+v", saved.Prov)
	}

	// A bare -diff re-runs with seed 0 and version "rt-v9" from the
	// saved provenance: clean, and no version-mismatch note either.
	out.Reset()
	if err := run(context.Background(), []string{"-diff", path}, &out); err != nil {
		t.Fatalf("round-trip diff failed: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "version differs") {
		t.Errorf("saved version was not round-tripped:\n%s", out.String())
	}

	// An explicit flag still overrides its saved value: a different seed
	// re-runs with different randomness and must drift.
	out.Reset()
	if err := run(context.Background(), []string{"-diff", path, "-seed", "1"}, &out); err == nil {
		t.Errorf("explicit -seed 1 against a seed-0 report diffed clean:\n%s", out.String())
	}
}

// TestCommittedReportsDiffClean regenerates every experiment from its
// committed reference document and requires a clean diff — the report
// regression gate CI runs.
func TestCommittedReportsDiffClean(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "reports")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 20 {
		t.Fatalf("only %d committed reports in %s", len(entries), dir)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		t.Run(strings.TrimSuffix(name, ".json"), func(t *testing.T) {
			t.Parallel()
			var out strings.Builder
			if err := run(context.Background(), []string{"-diff", filepath.Join(dir, name)}, &out); err != nil {
				t.Errorf("%v\n%s", err, out.String())
			}
		})
	}
}

func decodeFile(t *testing.T, path string) *report.Report {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := report.DecodeBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func encodeFile(t *testing.T, path string, rep *report.Report) {
	t.Helper()
	b, err := rep.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}
