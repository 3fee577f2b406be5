package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"memcon/internal/report"
)

// testRequest keeps experiment runtime small for the unit-test suite.
func testRequest(id string) Request {
	r := DefaultRequest(id)
	r.Scale = 0.04
	r.SimTimeNs = 200_000
	r.Mixes = 3
	return r
}

// TestDefaultRequestLiterals pins the full-scale defaults. The cache-key
// golden cannot: it is derived from report provenance, not from
// DefaultRequest.
func TestDefaultRequestLiterals(t *testing.T) {
	want := Request{Experiment: "fig14", Inputs: report.Inputs{Seed: 42, Scale: 1, SimTimeNs: 500_000, Mixes: 30}}
	if r := DefaultRequest("fig14"); r != want {
		t.Errorf("DefaultRequest = %+v, want %+v", r, want)
	}
}

func TestNormalizeValidates(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Request)
		want string
	}{
		{"unknown id", func(r *Request) { r.Experiment = "fig99" }, "unknown experiment"},
		{"zero scale", func(r *Request) { r.Scale = 0 }, "scale"},
		{"oversized scale", func(r *Request) { r.Scale = 1.5 }, "scale"},
		{"NaN scale", func(r *Request) { r.Scale = math.NaN() }, "scale"},
		{"zero simtime", func(r *Request) { r.SimTimeNs = 0 }, "simtime"},
		{"negative mixes", func(r *Request) { r.Mixes = -1 }, "mixes"},
		{"negative fleet", func(r *Request) { r.Fleet = -2 }, "fleet"},
	}
	for _, tc := range cases {
		r := DefaultRequest("fig14")
		tc.mut(&r)
		err := r.Normalize()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Normalize() = %v, want error mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestNormalizeCanonicalizesFleet pins the one rewrite Normalize
// performs: single-module experiments drop a stray Fleet, fleet
// experiments derive the scale-proportional default.
func TestNormalizeCanonicalizesFleet(t *testing.T) {
	r := DefaultRequest("fig14")
	r.Fleet = 99
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	if r.Fleet != 0 {
		t.Errorf("fig14 Fleet = %d after Normalize, want 0", r.Fleet)
	}

	f := DefaultRequest("fleet-ce")
	if err := f.Normalize(); err != nil {
		t.Fatal(err)
	}
	if f.Fleet != 160 {
		t.Errorf("fleet-ce Fleet at scale 1 = %d, want derived 160", f.Fleet)
	}
	f = DefaultRequest("fleet-ce")
	f.Scale = 0.01
	f.Fleet = 0
	if err := f.Normalize(); err != nil {
		t.Fatal(err)
	}
	if f.Fleet != 4 {
		t.Errorf("fleet-ce Fleet at scale 0.01 = %d, want floor 4", f.Fleet)
	}
	f = DefaultRequest("fleet-ce")
	f.Fleet = 12
	if err := f.Normalize(); err != nil {
		t.Fatal(err)
	}
	if f.Fleet != 12 {
		t.Errorf("explicit Fleet rewritten to %d", f.Fleet)
	}
}

// TestRequestJSONOverlay pins the decode-onto-defaults idiom the server
// uses: absent fields keep the defaults, present fields win, and an
// explicit zero seed is honoured.
func TestRequestJSONOverlay(t *testing.T) {
	req := DefaultRequest("fig3")
	if err := json.Unmarshal([]byte(`{"seed":0,"scale":0.25}`), &req); err != nil {
		t.Fatal(err)
	}
	if req.Seed != 0 {
		t.Errorf("explicit zero seed became %d", req.Seed)
	}
	if req.Scale != 0.25 {
		t.Errorf("scale = %v, want 0.25", req.Scale)
	}
	if d := DefaultRequest("fig3"); req.SimTimeNs != d.SimTimeNs || req.Mixes != d.Mixes {
		t.Errorf("absent fields lost their defaults: %+v", req)
	}
	if req.Experiment != "fig3" {
		t.Errorf("experiment = %q", req.Experiment)
	}
}

func TestRequestJSONRoundTrip(t *testing.T) {
	r := testRequest("fleet-ce")
	r.Fleet = 8
	r.Version = "v1"
	b, err := r.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	var back Request
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != r {
		t.Errorf("round trip changed the request:\n  in  %+v\n  out %+v", r, back)
	}
	b2, err := back.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Errorf("canonical encodings differ:\n%s\n%s", b, b2)
	}
}

func TestCacheKeyDiscriminates(t *testing.T) {
	base := testRequest("fig6")
	if err := base.Normalize(); err != nil {
		t.Fatal(err)
	}
	muts := map[string]func(*Request){
		"experiment": func(r *Request) { r.Experiment = "minwi" },
		"seed":       func(r *Request) { r.Seed++ },
		"scale":      func(r *Request) { r.Scale = 0.05 },
		"simtime":    func(r *Request) { r.SimTimeNs++ },
		"mixes":      func(r *Request) { r.Mixes++ },
		"fleet":      func(r *Request) { r.Fleet++ },
		"version":    func(r *Request) { r.Version = "other" },
	}
	seen := map[[32]byte]string{base.CacheKey(): "base"}
	for field, mut := range muts {
		r := base
		mut(&r)
		key := r.CacheKey()
		if prev, dup := seen[key]; dup {
			t.Errorf("mutating %s collides with %s (key %x)", field, prev, key)
		}
		seen[key] = field
	}
	again := base
	if again.CacheKey() != base.CacheKey() {
		t.Error("identical requests produced different keys")
	}
}

// TestProvenanceRoundTrip is the -diff default-drift regression:
// rebuilding the request from saved provenance, normalizing, and
// restamping must reproduce the saved provenance exactly. It runs over
// every committed reference report plus synthetic provenance that sets
// the fields no reference report records (mapping, disturb, an explicit
// fleet, a version). A new provenance field that is not carried through
// RequestFromProvenance fails here.
func TestProvenanceRoundTrip(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "reports", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no reference reports found")
	}
	cases := map[string]report.Provenance{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := report.DecodeBytes(b)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		cases[f] = rep.Prov
	}
	synthetic := map[string]func(*Request){
		"fig3":             func(r *Request) { r.Mapping = "gray" },
		"disturb-exposure": func(r *Request) { r.Disturb = "para:0.01" },
		"fleet-ce":         func(r *Request) { r.Fleet = 12 },
		"fig14":            func(r *Request) { r.Version = "v1.2.3" },
	}
	for id, mut := range synthetic {
		plain, r := testRequest(id), testRequest(id)
		mut(&r)
		if err := plain.Normalize(); err != nil {
			t.Fatalf("synthetic %s: %v", id, err)
		}
		if err := r.Normalize(); err != nil {
			t.Fatalf("synthetic %s: %v", id, err)
		}
		if r == plain {
			t.Fatalf("synthetic %s: Normalize dropped the field under test", id)
		}
		cases["synthetic "+id] = r.provenance(registry[id].title)
	}
	for name, saved := range cases {
		req := RequestFromProvenance(saved)
		if err := req.Normalize(); err != nil {
			t.Errorf("%s: Normalize: %v", name, err)
			continue
		}
		if got := req.provenance(saved.Title); got != saved {
			t.Errorf("%s: provenance drifted through the Request round trip:\n  saved %+v\n  round %+v", name, saved, got)
		}
	}
}

// TestRunContextStampsProvenance pins the request-based entrypoint: the
// stamped provenance is the normalized request, and an explicit zero
// seed survives.
func TestRunContextStampsProvenance(t *testing.T) {
	req := testRequest("minwi")
	req.Seed = 0
	req.Version = "req-build"
	res, err := RunRequest(context.Background(), req, Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Report().Prov
	if p.Experiment != "minwi" || p.Seed != 0 || p.Scale != req.Scale ||
		p.SimTimeNs != req.SimTimeNs || p.Mixes != req.Mixes || p.Version != "req-build" {
		t.Errorf("provenance = %+v", p)
	}
	if p.Fleet != 0 {
		t.Errorf("minwi stamped Fleet %d, want 0", p.Fleet)
	}
	if p.Title == "" {
		t.Error("provenance missing the registry description")
	}
}

func TestRunContextRejectsInvalid(t *testing.T) {
	if _, err := RunRequest(context.Background(), Request{Experiment: "fig99", Inputs: report.Inputs{Scale: 1, SimTimeNs: 1, Mixes: 1}}, Runtime{}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if _, err := RunRequest(context.Background(), Request{Experiment: "fig6"}, Runtime{}); err == nil {
		t.Error("zero-value request accepted (scale 0 must be invalid)")
	}
}

// TestRunContextCancelled pins that a pre-cancelled context aborts the
// run instead of completing it.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunRequest(ctx, testRequest("fig3"), Runtime{}); err == nil {
		t.Error("cancelled context did not abort the run")
	}
}

// decodeOnto decodes body onto DefaultRequest(id) the way memcond
// does: absent fields keep their defaults and unknown fields fail.
func decodeOnto(id string, body []byte) (Request, error) {
	req := DefaultRequest(id)
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return req, dec.Decode(&req)
}

// FuzzRequest feeds arbitrary JSON bodies to the request boundary. A
// body must fail to decode or validate, or normalize to a request whose
// inputs are in range and whose canonical JSON is a fixed point:
// decoded onto a default request and normalized again, it gives an
// equal request and the same cache key.
func FuzzRequest(f *testing.F) {
	ids := IDs()
	for _, seed := range []struct {
		id   string
		body string
	}{
		{"fig14", `{}`},
		{"fig14", `{"seed":0}`},
		{"fig3", `{"mapping":"default"}`},
		{"disturb-mitigation", `{"disturb":"PARA:0.0100"}`},
		{"disturb-mitigation", `{"scale":0.05,"disturb":"para:NaN"}`},
		{"fleet-ce", `{"scale":0.25,"fleet":0,"version":"v1"}`},
		{"fig4", `{"scale":-1}`},
	} {
		f.Add(uint8(slices.Index(ids, seed.id)), []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, pick uint8, body []byte) {
		id := ids[int(pick)%len(ids)]
		req, err := decodeOnto(id, body)
		if err != nil || req.Normalize() != nil {
			return
		}
		if !(req.Scale > 0 && req.Scale <= 1) || req.SimTimeNs <= 0 || req.Mixes <= 0 {
			t.Fatalf("normalized request out of range: %+v", req)
		}
		canon, err := req.MarshalCanonical()
		if err != nil {
			t.Fatalf("canonical encoding of %+v: %v", req, err)
		}
		again, err := decodeOnto(req.Experiment, canon)
		if err != nil {
			t.Fatalf("decoding canonical %s: %v", canon, err)
		}
		if err := again.Normalize(); err != nil {
			t.Fatalf("canonical %s fails validation: %v", canon, err)
		}
		if again != req || again.CacheKey() != req.CacheKey() {
			t.Fatalf("canonical form is not a fixed point:\n  first  %+v\n  second %+v", req, again)
		}
	})
}
