package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memcon/internal/core"
	"memcon/internal/trace"
	"memcon/internal/workload"
)

// writeReplayTrace generates one small workload trace, writes it as a
// compact file, and returns the in-memory trace and the file's path.
func writeReplayTrace(t *testing.T) (*trace.Trace, string) {
	t.Helper()
	spec, err := workload.AppByName("BlurMotion")
	if err != nil {
		t.Fatal(err)
	}
	tr := spec.Generate(7, 0.02)
	path := filepath.Join(t.TempDir(), "blur.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCompact(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return tr, path
}

// TestReplayMatchesRunContext pins the streaming path against the
// materializing one end to end: -replay on a compact file must print
// exactly the numbers core.RunContext computes on the same trace held
// in memory.
func TestReplayMatchesRunContext(t *testing.T) {
	tr, path := writeReplayTrace(t)
	var out strings.Builder
	if err := run(context.Background(), []string{"-replay", path}, &out); err != nil {
		t.Fatal(err)
	}
	rep, err := core.RunContext(context.Background(), tr, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TestsStarted == 0 || rep.Pril.Predictions == 0 {
		t.Fatalf("trace too small to exercise testing: %+v", rep)
	}
	for _, want := range []string{
		fmt.Sprintf("trace %s: %d writes over %.2f s, %d pages\n",
			tr.Name, rep.Pril.Writes, float64(rep.Duration)/float64(trace.Second), rep.Pages),
		fmt.Sprintf("refresh reduction   %.4f (upper bound %.4f)\n",
			rep.RefreshReduction(), rep.UpperBoundReduction()),
		fmt.Sprintf("lo-ref coverage     %.4f\n", rep.LoRefCoverage()),
		fmt.Sprintf("tests               started %d, completed %d, aborted %d\n",
			rep.TestsStarted, rep.TestsCompleted, rep.TestsAborted),
		fmt.Sprintf("predictions         %d (correct %d, mispredicted %d)\n",
			rep.Pril.Predictions, rep.CorrectTests, rep.MispredictedTests),
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-replay report missing %q:\n%s", want, out.String())
		}
	}
}

func TestReplayRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "junk")
	if err := os.WriteFile(path, []byte("this is not a trace file"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run(context.Background(), []string{"-replay", path}, &out)
	if !errors.Is(err, trace.ErrBadFormat) {
		t.Errorf("garbage file: err = %v, want ErrBadFormat", err)
	} else if !strings.Contains(err.Error(), path) {
		t.Errorf("error %q does not name the file", err)
	}
	if err := run(context.Background(), []string{"-replay", filepath.Join(dir, "missing")}, &out); err == nil {
		t.Error("missing file accepted by -replay")
	}
}

// TestReplayTruncatedCompact checks the positioned decode error
// reaches the CLI user instead of a silent short report.
func TestReplayTruncatedCompact(t *testing.T) {
	_, compactPath := writeReplayTrace(t)
	raw, err := os.ReadFile(compactPath)
	if err != nil {
		t.Fatal(err)
	}
	truncPath := compactPath + ".trunc"
	if err := os.WriteFile(truncPath, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err = run(context.Background(), []string{"-replay", truncPath}, &out)
	if err == nil {
		t.Fatal("truncated compact trace accepted")
	}
	if !strings.Contains(err.Error(), "offset") {
		t.Errorf("error %q does not carry the decode position", err)
	}
}

// TestReplayRejectsPageBeyondBound checks that a compact trace of at
// most 20 bytes naming page 2^32-1 fails -replay with the engine's page
// bound error instead of sizing the engine to that page.
func TestReplayRejectsPageBeyondBound(t *testing.T) {
	tr := &trace.Trace{Name: "far", Duration: trace.Second, Events: []trace.Event{{Page: math.MaxUint32, At: 1}}}
	var buf bytes.Buffer
	if err := tr.WriteCompact(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 20 {
		t.Fatalf("compact trace is %d bytes, want at most 20", buf.Len())
	}
	path := filepath.Join(t.TempDir(), "far.trace")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run(context.Background(), []string{"-replay", path}, &out)
	want := fmt.Sprintf("page %d at or beyond the bound of %d pages", uint32(math.MaxUint32), core.MaxPages)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("-replay err = %v, want it to contain %q", err, want)
	}
}
