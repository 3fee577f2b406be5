package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"memcon/internal/report"
	"memcon/internal/servecache"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/cachekeys.txt from the committed reference reports")

const cacheKeyGoldenPath = "../../testdata/cachekeys.txt"

// goldenCacheKeys derives the (id, key-hex) pairs for every committed
// reference report, sorted by id.
func goldenCacheKeys(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("../../testdata/reports/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no reference reports found")
	}
	lines := make([]string, 0, len(files))
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := report.DecodeBytes(b)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		req := RequestFromProvenance(rep.Prov)
		if err := req.Normalize(); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		lines = append(lines, fmt.Sprintf("%s %s", req.Experiment, servecache.Key(req.CacheKey())))
	}
	sort.Strings(lines)
	return lines
}

// TestCacheKeyGolden pins Request.CacheKey for the whole committed
// reference set against testdata/cachekeys.txt. The digests are the
// serving daemon's content addresses: a change to the key derivation or
// to the report schema shifts every digest and must arrive as a
// conscious schema bump — regenerate with
//
//	go test ./internal/experiments -run TestCacheKeyGolden -update
//
// and commit the new file alongside the change that justifies it.
func TestCacheKeyGolden(t *testing.T) {
	got := strings.Join(goldenCacheKeys(t), "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(cacheKeyGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", cacheKeyGoldenPath)
		return
	}
	want, err := os.ReadFile(cacheKeyGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("cache keys drifted from %s — if the key schema change is intended, regenerate with -update\n--- got ---\n%s--- want ---\n%s",
			cacheKeyGoldenPath, got, want)
	}
}
