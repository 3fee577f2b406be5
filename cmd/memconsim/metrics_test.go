package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The -metrics contract extends the -parallel invariant to the metrics
// document: the json and prom renderings contain only deterministic
// aggregates (commutative counters and integer-domain histograms) and
// must be byte-identical for any worker count.

// runMetrics runs the CLI with -metrics pointed at a temp file and
// returns the file contents.
func runMetrics(t *testing.T, format string, args ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "metrics."+format)
	full := append(args, "-metrics", path, "-metrics-format", format)
	var out strings.Builder
	if err := run(context.Background(), full, &out); err != nil {
		t.Fatalf("run(%v): %v", full, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading metrics file: %v", err)
	}
	if len(data) == 0 {
		t.Fatalf("run(%v): empty metrics file", full)
	}
	return string(data)
}

func assertMetricsParallelInvariant(t *testing.T, format string, args ...string) {
	t.Helper()
	want := runMetrics(t, format, append(args, "-parallel", "1")...)
	for _, n := range []string{"4", "8"} {
		got := runMetrics(t, format, append(args, "-parallel", n)...)
		if got != want {
			t.Errorf("%s metrics differ between -parallel 1 and -parallel %s\n--- parallel 1 ---\n%s\n--- parallel %s ---\n%s",
				format, n, want, n, got)
		}
	}
}

func TestMetricsParallelInvariantJSON(t *testing.T) {
	assertMetricsParallelInvariant(t, "json", "-exp", "fig14", "-scale", "0.04")
}

func TestMetricsParallelInvariantProm(t *testing.T) {
	assertMetricsParallelInvariant(t, "prom", "-exp", "fig14", "-scale", "0.04")
}

func TestMetricsParallelInvariantAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full -all sweep in -short mode")
	}
	assertMetricsParallelInvariant(t, "json", "-all", "-scale", "0.05", "-simtime", "200000", "-mixes", "3")
}

// TestMetricsParallelInvariantDisturb pins the activation/mitigation
// counter kinds of the read-disturb co-simulation: both ids must emit
// byte-identical metrics documents at -parallel 1/4/8, like every
// other experiment.
func TestMetricsParallelInvariantDisturb(t *testing.T) {
	args := []string{"-scale", "0.05", "-simtime", "200000", "-mixes", "3"}
	assertMetricsParallelInvariant(t, "json", append([]string{"-exp", "disturb-exposure"}, args...)...)
	assertMetricsParallelInvariant(t, "prom", append([]string{"-exp", "disturb-mitigation", "-disturb", "para:0.01"}, args...)...)
}

// TestMetricsDisturbCounters checks the new activation/mitigation
// counters flow from the controller through obs into the document.
func TestMetricsDisturbCounters(t *testing.T) {
	out := runMetrics(t, "json", "-exp", "disturb-exposure", "-scale", "0.05",
		"-simtime", "200000", "-mixes", "3", "-parallel", "4")
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v\n%s", err, out)
	}
	for _, name := range []string{
		"memcon_row_activations_total",
		"memcon_test_activations_total",
		"memcon_disturb_rows_total",
		"memcon_disturb_cells_total",
	} {
		if doc.Counters[name] == 0 {
			t.Errorf("counter %s missing or zero:\n%s", name, out)
		}
	}

	out = runMetrics(t, "json", "-exp", "disturb-mitigation", "-disturb", "prac:1024",
		"-scale", "0.05", "-simtime", "200000", "-mixes", "3", "-parallel", "4")
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v\n%s", err, out)
	}
	if doc.Counters["memcon_mitigation_ops_total"] == 0 {
		t.Errorf("no mitigation ops counted:\n%s", out)
	}
}

// TestMetricsJSONDocument checks the document is valid JSON, counts
// real engine activity, and excludes the volatile wall-clock gauges.
func TestMetricsJSONDocument(t *testing.T) {
	out := runMetrics(t, "json", "-exp", "fig14", "-scale", "0.04", "-parallel", "4")
	var doc struct {
		Counters   map[string]int64           `json:"counters"`
		Gauges     map[string]float64         `json:"gauges"`
		Histograms map[string]json.RawMessage `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v\n%s", err, out)
	}
	if doc.Counters["memcon_engine_runs_total"] == 0 {
		t.Errorf("no engine runs counted:\n%s", out)
	}
	if doc.Counters["memcon_writes_total"] == 0 {
		t.Errorf("no writes counted:\n%s", out)
	}
	if doc.Counters["memcon_tests_queued_total"] == 0 {
		t.Errorf("no tests counted:\n%s", out)
	}
	if _, ok := doc.Histograms["memcon_write_interval_us"]; !ok {
		t.Errorf("write-interval histogram missing:\n%s", out)
	}
	for name := range doc.Gauges {
		if strings.Contains(name, "wall_ns") || strings.HasPrefix(name, "phase_") || strings.HasPrefix(name, "pool_") {
			t.Errorf("volatile gauge %s leaked into the JSON document", name)
		}
	}
}

// TestMetricsPromExposition checks the Prometheus text format is
// structurally valid: HELP/TYPE headers, "name value" samples, and
// cumulative histogram buckets ending in +Inf.
func TestMetricsPromExposition(t *testing.T) {
	out := runMetrics(t, "prom", "-exp", "fig14", "-scale", "0.04", "-parallel", "4")
	if !strings.Contains(out, "# TYPE memcon_writes_total counter") {
		t.Errorf("missing TYPE header:\n%s", out)
	}
	if !strings.Contains(out, `memcon_write_interval_us_bucket{le="+Inf"}`) {
		t.Errorf("missing +Inf histogram bucket:\n%s", out)
	}
	if strings.Contains(out, "pool_worker") || strings.Contains(out, "phase_") {
		t.Errorf("volatile gauges leaked into Prometheus exposition:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

// TestMetricsToStdout checks "-metrics -" appends the document to the
// normal output stream.
func TestMetricsToStdout(t *testing.T) {
	out := runString(t, "-exp", "fig6", "-metrics", "-", "-metrics-format", "prom")
	if !strings.Contains(out, "==== fig6 ====") || !strings.Contains(out, "memcon_engine_runs_total") {
		t.Errorf("stdout metrics missing report or document:\n%s", out)
	}
}

func TestMetricsBadFormatRejected(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-exp", "fig6", "-metrics", "-", "-metrics-format", "yaml"}, &out); err == nil {
		t.Errorf("unknown -metrics-format accepted")
	}
}
