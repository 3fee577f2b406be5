package memcon

import (
	"context"
	"strings"
	"testing"

	"memcon/internal/trace"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestMinWriteInterval(t *testing.T) {
	if got := MinWriteInterval(); got != 560*1000*1000 {
		t.Errorf("MinWriteInterval = %d ns, want 560 ms", got)
	}
}

func TestRunFacade(t *testing.T) {
	tr := &Trace{
		Name:     "facade",
		Duration: 20 * 1024 * trace.Millisecond,
		Events:   []Event{{Page: 0, At: 0}},
	}
	rep, err := Run(tr, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RefreshReduction() <= 0 {
		t.Errorf("reduction = %v, want positive", rep.RefreshReduction())
	}
}

func TestAppsFacade(t *testing.T) {
	if len(Apps()) != 12 {
		t.Errorf("apps = %d, want 12", len(Apps()))
	}
	app, err := AppByName("Netflix")
	if err != nil {
		t.Fatal(err)
	}
	tr := app.Generate(1, 0.02)
	if len(tr.Events) == 0 {
		t.Error("empty generated trace")
	}
	if len(SPECContents()) != 20 {
		t.Errorf("SPEC contents = %d, want 20", len(SPECContents()))
	}
}

func TestNewChipAndSystem(t *testing.T) {
	geom := DefaultGeometry()
	geom.RowsPerBank = 128
	geom.BanksPerChip = 2
	chip, err := NewChip(geom, 5)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(DefaultConfig(), chip)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trace{
		Duration: 10 * 1024 * trace.Millisecond,
		Events:   []Event{{Page: 0, At: 0}, {Page: 1, At: 100}},
	}
	rep, err := sys.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TestsStarted == 0 {
		t.Error("no tests started in system run")
	}
	if sys.UndetectedFailures() != 0 {
		t.Errorf("undetected failures = %d", sys.UndetectedFailures())
	}
}

func TestExperimentFacade(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 17 {
		t.Errorf("experiment ids = %d, want >= 17", len(ids))
	}
	out, err := Experiment(context.Background(), DefaultExperimentRequest("minwi"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1068") {
		t.Error("appendix experiment missing expected values")
	}
	if _, err := Experiment(context.Background(), DefaultExperimentRequest("bogus")); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestNewIncremental(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumPages = 4
	e, err := New(cfg, WithTester(AlwaysPass))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Observe(Event{Page: 2, At: 0}); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Finish(8 * 1024 * trace.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TestsCompleted != 1 {
		t.Errorf("tests completed = %d, want 1", rep.TestsCompleted)
	}
}
