package main

import (
	"strings"
	"testing"
)

// TestAllFailParallelInvariant pins the -parallel contract for the
// row scan: the ALL FAIL fraction is a pure per-row predicate, so the
// report must be byte-identical for any worker count.
func TestAllFailParallelInvariant(t *testing.T) {
	results := make(map[string]string)
	for _, n := range []string{"1", "4", "8"} {
		var out strings.Builder
		if err := run(withFast("-allfail", "-parallel", n), &out); err != nil {
			t.Fatalf("-allfail -parallel %s: %v", n, err)
		}
		results[n] = out.String()
	}
	for _, n := range []string{"4", "8"} {
		if results[n] != results["1"] {
			t.Errorf("-parallel %s output differs from -parallel 1:\n%q\nvs\n%q",
				n, results[n], results["1"])
		}
	}
}

// TestReadBackParallelInvariant pins the -parallel contract for the
// pattern and content read-back scans: ReadBack evaluates against
// frozen content and commits flips in a sequential pass, so the full
// failure report must be byte-identical for any worker count.
func TestReadBackParallelInvariant(t *testing.T) {
	scans := [][]string{
		{"-pattern", "checker-0", "-idle", "656"},
		{"-pattern", "rowstripe-0", "-idle", "656"},
		{"-pattern", "random-7", "-idle", "656"},
		{"-content", "mcf", "-idle", "656"},
	}
	for _, scan := range scans {
		scan := scan
		t.Run(strings.Join(scan[:2], ""), func(t *testing.T) {
			results := make(map[string]string)
			for _, n := range []string{"1", "4", "8"} {
				var out strings.Builder
				args := withFast(append(append([]string{}, scan...), "-parallel", n)...)
				if err := run(args, &out); err != nil {
					t.Fatalf("%v -parallel %s: %v", scan, n, err)
				}
				results[n] = out.String()
			}
			if !strings.Contains(results["1"], "failing rows") {
				t.Fatalf("unexpected report shape:\n%s", results["1"])
			}
			for _, n := range []string{"4", "8"} {
				if results[n] != results["1"] {
					t.Errorf("%v -parallel %s output differs from -parallel 1:\n%q\nvs\n%q",
						scan, n, results[n], results["1"])
				}
			}
		})
	}
}

// TestMappingParallelInvariant extends the -parallel contract to every
// vendor address mapping: the read-back scan must be byte-identical for
// any worker count no matter how the mapping relocates rows, and the
// mappings must actually disagree with each other (different physical
// neighbourhoods → different failure sets).
func TestMappingParallelInvariant(t *testing.T) {
	byMapping := make(map[string]string)
	for _, m := range []string{"default", "gray", "linear", "mirror"} {
		m := m
		t.Run(m, func(t *testing.T) {
			results := make(map[string]string)
			for _, n := range []string{"1", "4", "8"} {
				var out strings.Builder
				args := withFast("-pattern", "checker-0", "-idle", "656", "-mapping", m, "-parallel", n)
				if err := run(args, &out); err != nil {
					t.Fatalf("-mapping %s -parallel %s: %v", m, n, err)
				}
				results[n] = out.String()
			}
			if !strings.Contains(results["1"], "failing rows") {
				t.Fatalf("unexpected report shape:\n%s", results["1"])
			}
			for _, n := range []string{"4", "8"} {
				if results[n] != results["1"] {
					t.Errorf("-mapping %s -parallel %s output differs from -parallel 1", m, n)
				}
			}
			byMapping[m] = results["1"]
		})
	}
	if byMapping["default"] != "" && byMapping["gray"] != "" &&
		byMapping["default"] == byMapping["gray"] {
		t.Error("default and gray mappings produced identical failure reports")
	}
}

func TestUnknownMappingRejected(t *testing.T) {
	var out strings.Builder
	if err := run(withFast("-allfail", "-mapping", "zigzag"), &out); err == nil {
		t.Error("-mapping zigzag accepted")
	}
}

func TestBadParallelFlag(t *testing.T) {
	var out strings.Builder
	if err := run(withFast("-allfail", "-parallel", "0"), &out); err == nil {
		t.Error("-parallel 0 accepted")
	}
}
