package main

import (
	"context"
	"strings"
	"testing"
)

// The -parallel contract: output is byte-identical for any worker
// count. These tests pin that for a sweep-heavy figure (fig14 fans out
// over all 12 workloads), a performance experiment (table3 fans out
// over mixes), a pure-computation table (fig6), and the whole -all
// pipeline, comparing -parallel 1 against 4 and 8 workers.

// runString runs the CLI and returns its full output.
func runString(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	if out.Len() == 0 {
		t.Fatalf("run(%v): empty output", args)
	}
	return out.String()
}

// assertParallelInvariant runs the same experiment at worker counts
// 1, 4 and 8 and requires byte-identical output.
func assertParallelInvariant(t *testing.T, args ...string) {
	t.Helper()
	want := runString(t, append(args, "-parallel", "1")...)
	for _, n := range []string{"4", "8"} {
		got := runString(t, append(args, "-parallel", n)...)
		if got != want {
			t.Errorf("output differs between -parallel 1 and -parallel %s\n--- parallel 1 ---\n%s\n--- parallel %s ---\n%s",
				n, want, n, got)
		}
	}
}

func TestParallelInvariantFig15(t *testing.T) {
	assertParallelInvariant(t, "-exp", "fig15", "-scale", "0.04", "-simtime", "200000", "-mixes", "3")
}

func TestParallelInvariantTable3(t *testing.T) {
	assertParallelInvariant(t, "-exp", "table3", "-scale", "0.04", "-simtime", "200000", "-mixes", "3")
}

func TestParallelInvariantFig6(t *testing.T) {
	assertParallelInvariant(t, "-exp", "fig6")
}

func TestParallelInvariantFig14(t *testing.T) {
	assertParallelInvariant(t, "-exp", "fig14", "-scale", "0.04")
}

func TestParallelInvariantAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full -all sweep in -short mode")
	}
	assertParallelInvariant(t, "-all", "-scale", "0.05", "-simtime", "200000", "-mixes", "3")
}

// TestParallelInvariantMappings extends the -parallel contract across
// the vendor address mappings on a chip-level experiment: each mapping
// must be internally deterministic for any worker count, and distinct
// mappings must produce distinct reports (the selector is live, not
// cosmetic).
func TestParallelInvariantMappings(t *testing.T) {
	outputs := make(map[string]string)
	for _, m := range []string{"default", "gray", "linear", "mirror"} {
		assertParallelInvariant(t, "-exp", "fig3", "-scale", "0.04", "-mapping", m)
		outputs[m] = runString(t, "-exp", "fig3", "-scale", "0.04", "-mapping", m, "-parallel", "4")
	}
	if outputs["default"] == outputs["gray"] || outputs["default"] == outputs["mirror"] ||
		outputs["gray"] == outputs["linear"] {
		t.Error("distinct mappings produced identical fig3 reports")
	}
}

// TestMappingDefaultSpellings pins that -mapping default and the
// absent flag are the same request: byte-identical output (the
// Normalize canonicalization, observed end to end).
func TestMappingDefaultSpellings(t *testing.T) {
	bare := runString(t, "-exp", "fig3", "-scale", "0.04", "-parallel", "4")
	def := runString(t, "-exp", "fig3", "-scale", "0.04", "-mapping", "default", "-parallel", "4")
	if bare != def {
		t.Error("-mapping default differs from the absent flag")
	}
}

func TestUnknownMappingRejected(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-exp", "fig3", "-scale", "0.04", "-mapping", "zigzag"}, &out)
	if err == nil || !strings.Contains(err.Error(), "unknown address mapping") {
		t.Errorf("-mapping zigzag: err = %v, want unknown-mapping error", err)
	}
}

// TestRepeatedRunsIdentical guards against nondeterminism that does not
// come from scheduling at all (map iteration order leaking into float
// accumulation): two runs of the same process must agree byte for byte.
func TestRepeatedRunsIdentical(t *testing.T) {
	args := []string{"-exp", "fig9", "-scale", "0.04", "-parallel", "4"}
	a := runString(t, args...)
	b := runString(t, args...)
	if a != b {
		t.Errorf("two identical invocations disagree:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}
