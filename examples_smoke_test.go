package memcon

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesSmoke builds and runs every example program and requires
// a zero exit status and non-empty stdout. The examples double as
// living documentation; a refactor that silently breaks one should
// fail the suite, not a reader.
func TestExamplesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("example programs in -short mode")
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	if len(names) != 5 {
		t.Fatalf("found %d example dirs %v, want 5", len(names), names)
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			bin := filepath.Join(t.TempDir(), name)
			build := exec.Command("go", "build", "-o", bin, "./"+filepath.Join("examples", name))
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("building example %s: %v\n%s", name, err, out)
			}
			out, err := exec.Command(bin).CombinedOutput()
			if err != nil {
				t.Fatalf("running example %s: %v\n%s", name, err, out)
			}
			if len(out) == 0 {
				t.Errorf("example %s produced no output", name)
			}
		})
	}
}

// TestBenchmarkModuleBuilds builds cmd/membench, the benchmark driver.
// It is a nested module, so go build ./... and go test ./... never
// compile it, and an internal API change that breaks it would otherwise
// pass the suite and fail every benchmark run.
func TestBenchmarkModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark module build in -short mode")
	}
	build := exec.Command("go", "build", "-o", filepath.Join(t.TempDir(), "membench"), ".")
	build.Dir = filepath.Join("cmd", "membench")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building cmd/membench: %v\n%s", err, out)
	}
}
