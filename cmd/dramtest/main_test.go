package main

import (
	"strings"
	"testing"
)

// Small chip keeps the CLI tests fast.
var fast = []string{"-rows", "256"}

func withFast(args ...string) []string { return append(args, fast...) }

func TestPatternsListing(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-patterns"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"solid-0", "checker-0", "rowstripe-1"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("pattern listing missing %q", name)
		}
	}
}

func TestPatternRun(t *testing.T) {
	var out strings.Builder
	if err := run(withFast("-pattern", "checker-0", "-idle", "656"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "failing rows") {
		t.Errorf("pattern run output incomplete:\n%s", out.String())
	}
}

func TestContentRun(t *testing.T) {
	var out strings.Builder
	if err := run(withFast("-content", "mcf"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "content:mcf") {
		t.Errorf("content run output incomplete:\n%s", out.String())
	}
}

func TestAllFail(t *testing.T) {
	var out strings.Builder
	if err := run(withFast("-allfail"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ANY pattern") {
		t.Errorf("allfail output incomplete:\n%s", out.String())
	}
}

func TestProfileRun(t *testing.T) {
	var out strings.Builder
	if err := run(withFast("-profile", "-rounds", "1"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ESCAPES") {
		t.Errorf("profile output incomplete:\n%s", out.String())
	}
}

func TestErrors(t *testing.T) {
	var out strings.Builder
	if err := run(withFast("-pattern", "no-such-pattern"), &out); err == nil {
		t.Error("unknown pattern accepted")
	}
	if err := run(withFast("-content", "no-such-benchmark"), &out); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := run(nil, &out); err == nil {
		t.Error("empty invocation accepted")
	}
	// An idle time or guardband that is not positive, or that wraps the
	// nanosecond idle, must be rejected before anything runs.
	for _, args := range [][]string{
		{"-allfail", "-idle", "-5"},
		{"-pattern", "checker-0", "-idle", "0"},
		{"-content", "mcf", "-idle", "-1"},
		{"-allfail", "-idle", "10000000000000"},
		{"-profile", "-rounds", "1", "-guardband", "NaN"},
		{"-profile", "-rounds", "1", "-guardband", "+Inf"},
		{"-profile", "-rounds", "1", "-guardband", "1e30"},
	} {
		out.Reset()
		if err := run(withFast(args...), &out); err == nil {
			t.Errorf("%v accepted:\n%s", args, out.String())
		}
	}
}
