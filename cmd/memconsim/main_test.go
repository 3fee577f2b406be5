package main

import (
	"context"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig14", "fig6", "table3", "minwi", "vrt", "motiv"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("listing missing %q", id)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-exp", "minwi"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1068 ns") {
		t.Errorf("appendix output missing costs:\n%s", out.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-exp", "fig99"}, &out); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunNoArguments(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), nil, &out); err == nil {
		t.Error("empty invocation should error with usage")
	}
	if !strings.Contains(out.String(), "-exp") {
		t.Error("usage not printed")
	}
}

func TestRunBadFlag(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-bogus"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunScaledExperiment(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-exp", "fig6", "-scale", "0.05"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "560 ms") {
		t.Errorf("fig6 output missing MinWriteInterval:\n%s", out.String())
	}
}

func TestRunCSVOutput(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-exp", "fig6", "-format", "csv"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "time_ms,hiref_ns,memcon_ns") {
		t.Errorf("csv output wrong header:\n%s", out.String())
	}
}

// TestCSVAliasRemoved pins that the deprecated -csv alias (an alias for
// -format csv since the typed-report refactor) is gone: the flag is now
// rejected outright instead of being silently honoured.
func TestCSVAliasRemoved(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-exp", "fig6", "-csv"}, &out); err == nil {
		t.Error("removed -csv flag still accepted")
	}
	if err := run(context.Background(), []string{"-exp", "fig6", "-format", "bogus"}, &out); err == nil {
		t.Error("unknown -format accepted")
	}
}

// TestSeedZeroHonoured pins the literal-seed contract of the Request
// flag layer: -seed 0 must select seed 0, not silently fall back to the
// default seed 42.
func TestSeedZeroHonoured(t *testing.T) {
	var zero, def strings.Builder
	if err := run(context.Background(), []string{"-exp", "fig3", "-scale", "0.04", "-seed", "0"}, &zero); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-exp", "fig3", "-scale", "0.04"}, &def); err != nil {
		t.Fatal(err)
	}
	if zero.String() == def.String() {
		t.Error("-seed 0 produced the default-seed output; the zero seed was dropped")
	}
}

// TestDiffRejectsBadTolerance pins that -diff tolerances must be finite
// and non-negative: a negative or NaN one reports identical cells as
// drift, an infinite relative one fails equal zeros (Inf·0 is NaN), and
// an infinite absolute one accepts any drift. The error names the flag,
// and no diff table is printed.
func TestDiffRejectsBadTolerance(t *testing.T) {
	for _, tc := range [][2]string{
		{"-tol-rel", "-1"}, {"-tol-abs", "-1"},
		{"-tol-abs", "NaN"}, {"-tol-rel", "NaN"},
		{"-tol-rel", "+Inf"}, {"-tol-abs", "+Inf"},
	} {
		var out strings.Builder
		err := run(context.Background(), []string{"-diff", "../../testdata/reports/minwi.json", tc[0], tc[1]}, &out)
		if err == nil || !strings.Contains(err.Error(), tc[0]) {
			t.Errorf("%s %s: err = %v, want an error naming %s", tc[0], tc[1], err, tc[0])
		}
		if out.Len() != 0 {
			t.Errorf("%s %s printed output:\n%s", tc[0], tc[1], out.String())
		}
	}
}

// TestRunRejectsNaNScale pins that -scale NaN fails the range check
// before anything runs (NaN compares false with both bounds, so a
// `<= 0 || > 1` check would let it through).
func TestRunRejectsNaNScale(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-exp", "fig9", "-scale", "NaN"}, &out)
	if err == nil || !strings.Contains(err.Error(), "out of range (0,1]") {
		t.Errorf("-scale NaN: err = %v, want the scale range error", err)
	}
	if out.Len() != 0 {
		t.Errorf("-scale NaN printed output:\n%s", out.String())
	}
}

// TestDisturbParameterFlagsRemoved pins that -disturb is the one
// spelling of a mitigation: the parameter flags that used to compose
// with a bare policy name are rejected as undefined.
func TestDisturbParameterFlagsRemoved(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "disturb-mitigation", "-disturb", "para", "-para-p", "0.01"},
		{"-exp", "disturb-mitigation", "-disturb", "prac", "-prac-threshold", "2048"},
	} {
		var out strings.Builder
		err := run(context.Background(), args, &out)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%q: err = %v, want flag provided but not defined", args, err)
		}
	}
}

// TestDisturbSpellingsAgree pins that two spellings of one mitigation
// spec normalize to the same request and print identical reports,
// provenance included.
func TestDisturbSpellingsAgree(t *testing.T) {
	reportFor := func(spec string) string {
		var out strings.Builder
		args := []string{"-exp", "disturb-mitigation", "-disturb", spec,
			"-scale", "0.04", "-simtime", "200000", "-format", "json"}
		if err := run(context.Background(), args, &out); err != nil {
			t.Fatalf("-disturb %s: %v", spec, err)
		}
		return out.String()
	}
	if a, b := reportFor("para:0.01"), reportFor("PARA:0.0100"); a != b {
		t.Errorf("-disturb para:0.01 and PARA:0.0100 printed different reports:\n%s\n---\n%s", a, b)
	}
}
