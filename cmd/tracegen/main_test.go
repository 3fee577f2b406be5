package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memcon/internal/trace"
	"memcon/internal/workload"
)

func TestRunList(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Netflix") {
		t.Error("listing missing applications")
	}
}

// TestGenerateAndInspect checks that the default -out file is a compact
// trace (it opens with trace.NewStream) and that -inspect reads it.
func TestGenerateAndInspect(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.trace")
	var out strings.Builder
	if err := run([]string{"-app", "BlurMotion", "-scale", "0.02", "-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote") {
		t.Error("generation output missing")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := trace.NewStream(f)
	if err != nil {
		t.Fatalf("default output is not a compact trace: %v", err)
	}
	if s.Name() != "BlurMotion" || s.Events() == 0 {
		t.Errorf("stream header = %q/%d events", s.Name(), s.Events())
	}
	out.Reset()
	if err := run([]string{"-inspect", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "BlurMotion") {
		t.Errorf("inspection missing trace name:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "write-interval distribution") {
		t.Error("inspection missing histogram")
	}
}

func TestGenerateAndInspectCompactReads(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.trace")
	var out strings.Builder
	if err := run([]string{"-app", "BlurMotion", "-scale", "0.02", "-reads", "-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-inspect", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "BlurMotion-reads") {
		t.Errorf("compact read trace not inspectable:\n%s", out.String())
	}
}

// TestCompactFlagRemoved pins that compact is the only output format:
// the former -compact switch is a usage error.
func TestCompactFlagRemoved(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trace")
	var out strings.Builder
	err := run([]string{"-app", "BlurMotion", "-scale", "0.02", "-compact", "-out", path}, &out)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("-compact: err = %v, want an undefined-flag usage error", err)
	}
}

func TestErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-app", "NoSuchApp", "-out", "/tmp/x"}, &out); err == nil {
		t.Error("unknown app accepted")
	}
	if err := run([]string{"-app", "Netflix"}, &out); err == nil {
		t.Error("missing -out accepted")
	}
	if err := run([]string{"-inspect", "/nonexistent/file"}, &out); err == nil {
		t.Error("missing file accepted")
	}
	if err := run(nil, &out); err == nil {
		t.Error("empty invocation accepted")
	}
}

// TestBadGenerateArgsWriteNothing checks that -app with a -scale
// outside (0,1], NaN included, or without -out fails before generating
// and leaves no file behind.
func TestBadGenerateArgsWriteNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.trace")
	for _, args := range [][]string{
		{"-app", "BlurMotion", "-scale", "NaN", "-out", path},
		{"-app", "BlurMotion", "-scale", "0", "-out", path},
		{"-app", "BlurMotion", "-scale", "-1", "-out", path},
		{"-app", "BlurMotion", "-scale", "1.5", "-out", path},
		{"-app", "BlurMotion", "-scale", "0.02"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("%q: accepted", args)
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
			t.Fatalf("%q: left %d files (%v)", args, len(entries), err)
		}
	}
}

// TestHeadStreamsCompact checks -head against the generator: with
// tracegen's default seed (1), -head 5 prints the header and exactly
// the first five events of Generate(1, 0.02).
func TestHeadStreamsCompact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.trace")
	var out strings.Builder
	if err := run([]string{"-app", "BlurMotion", "-scale", "0.02", "-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	spec, err := workload.AppByName("BlurMotion")
	if err != nil {
		t.Fatal(err)
	}
	tr := spec.Generate(1, 0.02)
	want := fmt.Sprintf("trace %q: %.1f s, %d events\n",
		tr.Name, float64(tr.Duration)/float64(trace.Second), len(tr.Events))
	for _, ev := range tr.Events[:5] {
		want += fmt.Sprintf("%10d µs  page %d\n", ev.At, ev.Page)
	}
	var head strings.Builder
	if err := run([]string{"-head", "5", path}, &head); err != nil {
		t.Fatal(err)
	}
	if head.String() != want {
		t.Fatalf("-head 5:\n%s\nwant:\n%s", head.String(), want)
	}
	if err := run([]string{"-head", "5"}, &head); err == nil {
		t.Error("-head without a file argument accepted")
	}
	if err := run([]string{"-head", "5", path, path}, &head); err == nil {
		t.Error("-head with two file arguments accepted")
	}
	junk := filepath.Join(dir, "junk")
	if err := os.WriteFile(junk, []byte("this is not a trace file"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-head", "5", junk}, &head)
	if !errors.Is(err, trace.ErrBadFormat) || !strings.Contains(err.Error(), junk) {
		t.Errorf("-head on a non-trace file: err = %v, want ErrBadFormat naming the file", err)
	}
}
