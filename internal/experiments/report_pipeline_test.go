package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"memcon/internal/report"
)

// TestEveryExperimentReports is the registry-wide property test for the
// typed report pipeline: every registered id must build a report that
// renders in all three formats, survives a JSON round trip unchanged,
// and is byte-identical for any worker count — including 0, the
// GOMAXPROCS default cmd/memcond runs with.
func TestEveryExperimentReports(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			req := testRequest(id)
			req.Scale = 0.02
			out, err := RunRequest(context.Background(), req, Runtime{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			rep := out.Report()

			// Provenance is stamped with the normalized inputs. Only
			// fleet-scale experiments record the fleet size: a non-fleet
			// experiment stamping it would perturb its committed reports,
			// and a fleet experiment omitting it would let -diff compare
			// runs of different fleet sizes as if comparable.
			if rep.Prov.Experiment != id || rep.Prov.Seed != req.Seed {
				t.Errorf("provenance = %+v", rep.Prov)
			}
			wantFleet := 0
			if registry[id].fleet != nil {
				wantFleet = deriveFleet(req.Scale)
			}
			if rep.Prov.Fleet != wantFleet {
				t.Errorf("provenance.fleet = %d, want %d", rep.Prov.Fleet, wantFleet)
			}

			// Text renders and is non-empty.
			if strings.TrimSpace(rep.Text()) == "" {
				t.Error("empty text rendering")
			}

			// CSV renders with a rectangular body.
			csv, err := rep.CSV()
			if err != nil {
				t.Fatalf("CSV: %v", err)
			}
			lines := strings.Split(strings.TrimSpace(csv), "\n")
			if len(lines) < 2 {
				t.Errorf("csv has only %d lines", len(lines))
			}

			// JSON round-trips exactly.
			doc, err := rep.MarshalCanonical()
			if err != nil {
				t.Fatalf("MarshalCanonical: %v", err)
			}
			back, err := report.DecodeBytes(doc)
			if err != nil {
				t.Fatalf("DecodeBytes: %v", err)
			}
			if !reflect.DeepEqual(rep, back) {
				t.Error("JSON round trip changed the report")
			}

			// A fresh identical run diffs clean at zero tolerance, and the
			// canonical document is byte-identical for any worker count.
			for _, workers := range []int{0, 4, 8} {
				out2, err := RunRequest(context.Background(), req, Runtime{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				rep2 := out2.Report()
				if d := report.Diff(rep, rep2, report.Tolerance{}); !d.Clean() {
					t.Errorf("workers=%d: re-run drifted:\n%s", workers, d)
				}
				doc2, err := rep2.MarshalCanonical()
				if err != nil {
					t.Fatal(err)
				}
				if string(doc) != string(doc2) {
					t.Errorf("workers=%d: canonical JSON not byte-identical", workers)
				}
			}
		})
	}
}
