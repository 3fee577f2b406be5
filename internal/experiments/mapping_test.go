package experiments

import (
	"context"
	"strings"
	"testing"

	"memcon/internal/dram"
)

// TestNormalizeCanonicalizesMapping pins the mapping rewrites: the
// default spelling collapses to "", experiments that build no chips
// drop the field entirely (so a stray -mapping cannot fork their cache
// keys), and unknown names on chip-level experiments are errors naming
// the registry.
func TestNormalizeCanonicalizesMapping(t *testing.T) {
	r := DefaultRequest("fig3")
	r.Mapping = dram.DefaultMappingName
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	if r.Mapping != "" {
		t.Errorf(`"default" normalized to %q, want ""`, r.Mapping)
	}

	r = DefaultRequest("fig3")
	r.Mapping = "gray"
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	if r.Mapping != "gray" {
		t.Errorf("explicit mapping rewritten to %q", r.Mapping)
	}

	r = DefaultRequest("fig14") // trace-driven: builds no chips
	r.Mapping = "gray"
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	if r.Mapping != "" {
		t.Errorf("non-chip experiment kept mapping %q, want dropped", r.Mapping)
	}

	r = DefaultRequest("fig3")
	r.Mapping = "zigzag"
	err := r.Normalize()
	if err == nil || !strings.Contains(err.Error(), "unknown address mapping") {
		t.Errorf("Normalize with unknown mapping = %v, want error", err)
	}
}

// TestCacheKeyMappingCompatible pins the serving contract extension:
// the canonical default-mapping request hashes the exact bytes it
// hashed before the Mapping field existed (the golden file over
// testdata/cachekeys.txt double-checks this for all pinned requests),
// while each non-default mapping keys differently.
func TestCacheKeyMappingCompatible(t *testing.T) {
	base := testRequest("fig3")
	if err := base.Normalize(); err != nil {
		t.Fatal(err)
	}
	keys := map[string][32]byte{"": base.CacheKey()}
	for _, m := range []string{"gray", "linear", "mirror"} {
		r := testRequest("fig3")
		r.Mapping = m
		if err := r.Normalize(); err != nil {
			t.Fatal(err)
		}
		key := r.CacheKey()
		for prev, k := range keys {
			if k == key {
				t.Errorf("mapping %q collides with %q (key %x)", m, prev, key)
			}
		}
		keys[m] = key
	}

	// "default" and "" must share a key — they are the same request.
	r := testRequest("fig3")
	r.Mapping = dram.DefaultMappingName
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	if r.CacheKey() != keys[""] {
		t.Error(`"default" and "" key differently after Normalize`)
	}
}

// TestMappingChangesChipNumbers is the end-to-end check that the
// selector actually reaches the silicon: the same chip-level experiment
// run under two mappings must report different numbers (the weak-cell
// population is seeded in physical space, so relocating system rows
// changes which content patterns excite which cells), and the stamped
// provenance must record the mapping that produced them.
func TestMappingChangesChipNumbers(t *testing.T) {
	run := func(mapping string) string {
		req := DefaultRequest("fig3")
		req.Scale = 0.04
		req.Mapping = mapping
		res, err := RunRequest(context.Background(), req, Runtime{})
		if err != nil {
			t.Fatal(err)
		}
		rep := res.Report()
		if rep.Prov.Mapping != mapping {
			t.Errorf("mapping %q: provenance records %q", mapping, rep.Prov.Mapping)
		}
		return res.Report().Text()
	}
	def := run("")
	gray := run("gray")
	if def == gray {
		t.Error("fig3 output identical under default and gray mappings; selector not reaching the chip")
	}
}
