package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"memcon/internal/dram"
	"memcon/internal/obs"
	"memcon/internal/refresh"
	"memcon/internal/report"
)

// Request is the canonical, serializable description of one experiment
// run: exactly the inputs that determine the report's bytes, and
// nothing else. It is the unit of the serving API (cmd/memcond) and of
// result caching — Normalize produces the canonical form and CacheKey
// hashes it, so two requests with the same key always yield
// byte-identical canonical report JSON.
//
// Every field is literal: a zero Seed means seed 0, never "use the
// default". Defaults enter only at construction — DefaultRequest fills
// them, and JSON bodies are decoded ONTO a default request so absent
// fields keep their defaults while present ones (including an explicit
// zero seed) stick.
//
// Execution knobs that do not affect the bytes (worker count,
// observers, phase timers) are deliberately absent; they live in
// Runtime.
type Request struct {
	// Experiment is the registry id (fig14, table3, fleet-risk, ...).
	Experiment string `json:"experiment"`
	// Seed drives all randomness. Literal: zero is seed 0.
	Seed int64 `json:"seed"`
	// Scale shrinks workload sizes; must lie in (0,1].
	Scale float64 `json:"scale"`
	// SimTimeNs bounds performance-simulation runs (per configuration).
	SimTimeNs int64 `json:"simtime_ns"`
	// Mixes is the multiprogrammed-mix count for performance runs.
	Mixes int `json:"mixes"`
	// Fleet is the module count for fleet-scale experiments. Normalize
	// zeroes it for experiments that ignore it and derives the
	// scale-proportional default (160 at scale 1, floor 4) when a fleet
	// experiment leaves it below 1, so the canonical form never carries
	// an input the numbers do not depend on.
	Fleet int `json:"fleet,omitempty"`
	// Mapping names the vendor address-mapping scheme for chip-level
	// experiments (dram.MappingNames lists the registry). Normalize
	// canonicalizes "default" to "" and zeroes the field for experiments
	// that build no chips, so the canonical form — and therefore the
	// cache key — never carries a mapping the numbers do not depend on.
	Mapping string `json:"mapping,omitempty"`
	// Disturb is the RowHammer mitigation spec for read-disturb
	// experiments (refresh.ParseMitigation syntax). Normalize
	// canonicalizes "none" (and parameter spellings) and zeroes the
	// field for experiments that simulate no disturbance, so the
	// canonical form — and therefore the cache key — never carries a
	// mitigation the numbers do not depend on.
	Disturb string `json:"disturb,omitempty"`
	// Version is an opaque build identifier stamped into report
	// provenance. It never influences the numbers, but it does appear
	// in the report bytes, so it participates in the cache key.
	Version string `json:"version,omitempty"`
}

// DefaultRequest returns the full-scale request for an experiment id:
// seed 42, scale 1, 500 000 simulated ns and 30 mixes. Decode JSON
// request bodies onto this value so absent fields default and present
// fields (even explicit zeros) win.
func DefaultRequest(id string) Request {
	return Request{
		Experiment: id,
		Seed:       42,
		Scale:      1.0,
		SimTimeNs:  500_000,
		Mixes:      30,
	}
}

// RequestFromProvenance reconstructs the request that produced a saved
// report, field for field. Because Provenance and Request carry the
// same input set, the round trip saved → Request → Normalize → run
// reproduces the saved provenance exactly; a new provenance field only
// survives review by being added to both structs and this function,
// which is what keeps -diff re-runs from silently default-drifting.
func RequestFromProvenance(p report.Provenance) Request {
	return Request{
		Experiment: p.Experiment,
		Seed:       p.Seed,
		Scale:      p.Scale,
		SimTimeNs:  p.SimTimeNs,
		Mixes:      p.Mixes,
		Fleet:      p.Fleet,
		Mapping:    p.Mapping,
		Disturb:    p.Disturb,
		Version:    p.Version,
	}
}

// deriveFleet is the scale-proportional fleet-size default Normalize
// fills in for fleet experiments.
func deriveFleet(scale float64) int {
	n := int(160*scale + 0.5)
	if n < 4 {
		n = 4
	}
	return n
}

// Normalize validates the request and rewrites it into canonical form.
// Out-of-range inputs are errors, not silent substitutions, because a
// served request that quietly ran with different numbers than asked for
// would poison the content-addressed cache. The only rewrites are
// canonicalizations: Fleet (zero for experiments that ignore it, derived
// default for fleet experiments that leave it unset), Mapping and
// Disturb (see their field docs).
func (r *Request) Normalize() error {
	e, ok := registry[r.Experiment]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (known: %s)", r.Experiment, strings.Join(IDs(), ", "))
	}
	if !(r.Scale > 0 && r.Scale <= 1) { // written so that NaN fails too
		return fmt.Errorf("experiments: scale %v out of range (0,1]", r.Scale)
	}
	if r.SimTimeNs <= 0 {
		return fmt.Errorf("experiments: simtime_ns %d must be positive", r.SimTimeNs)
	}
	if r.Mixes <= 0 {
		return fmt.Errorf("experiments: mixes %d must be positive", r.Mixes)
	}
	if r.Fleet < 0 {
		return fmt.Errorf("experiments: fleet %d must be non-negative", r.Fleet)
	}
	if !e.fleet {
		r.Fleet = 0
	} else if r.Fleet < 1 {
		r.Fleet = deriveFleet(r.Scale)
	}
	// "default" and "" select the same scrambler; canonicalize to ""
	// so both spellings share a cache key (and the default keeps the
	// exact pre-mapping key bytes).
	if r.Mapping == dram.DefaultMappingName {
		r.Mapping = ""
	}
	if !mappedExperiments[r.Experiment] {
		r.Mapping = ""
	} else if !dram.KnownMapping(r.Mapping) {
		return fmt.Errorf("experiments: unknown address mapping %q (known: %s)",
			r.Mapping, strings.Join(dram.MappingNames(), ", "))
	}
	if !disturbExperiments[r.Experiment] {
		r.Disturb = ""
	} else {
		// "none" and parameter spellings collapse to one canonical form
		// so equivalent requests share a cache key (and no mitigation
		// keeps the exact pre-disturb key bytes).
		spec, err := refresh.CanonicalMitigationSpec(r.Disturb)
		if err != nil {
			return err
		}
		r.Disturb = spec
	}
	return nil
}

// cacheKeyDomain versions the CacheKey byte layout itself; bump it if
// the serialization below ever changes shape.
const cacheKeyDomain = "memcon-request-v1"

// CacheKey returns the SHA-256 content address of the request: a hash
// over the canonicalized (experiment, seed, scale, simtime, mixes,
// fleet, mapping, version) tuple plus the report schema version. Two normalized
// requests share a key exactly when their canonical report JSON is
// byte-identical, which is what lets cmd/memcond serve repeat requests
// from the cache without re-running anything.
//
// Call Normalize first: the key hashes the fields literally, so a
// non-canonical request (for example a stray Fleet on a single-module
// experiment) keys differently from its canonical form.
//
// The digest is part of the public serving contract — the golden test
// over testdata/cachekeys.txt pins it, so any change here (or to the
// report schema) must be a conscious bump, never an accident.
func (r Request) CacheKey() [32]byte {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", cacheKeyDomain)
	fmt.Fprintf(h, "schema=%d\n", report.SchemaVersion)
	fmt.Fprintf(h, "experiment=%s\n", r.Experiment)
	fmt.Fprintf(h, "seed=%d\n", r.Seed)
	// 'x' renders the exact bit pattern (hex mantissa); two scales hash
	// alike only when they are the same float64.
	fmt.Fprintf(h, "scale=%s\n", strconv.FormatFloat(r.Scale, 'x', -1, 64))
	fmt.Fprintf(h, "simtime_ns=%d\n", r.SimTimeNs)
	fmt.Fprintf(h, "mixes=%d\n", r.Mixes)
	fmt.Fprintf(h, "fleet=%d\n", r.Fleet)
	fmt.Fprintf(h, "version=%s\n", r.Version)
	// Appended conditionally so every pre-mapping request — including
	// all 28 pinned golden keys — hashes the exact same bytes as before
	// the field existed. Normalize canonicalizes the default mapping to
	// "", so only genuinely non-default requests take the new line.
	if r.Mapping != "" {
		fmt.Fprintf(h, "mapping=%s\n", r.Mapping)
	}
	// Same conditional-append contract as Mapping: Normalize zeroes the
	// spec for non-disturb experiments and canonicalizes "none" to "",
	// so every pre-disturb request hashes its exact historical bytes.
	if r.Disturb != "" {
		fmt.Fprintf(h, "disturb=%s\n", r.Disturb)
	}
	var key [32]byte
	h.Sum(key[:0])
	return key
}

// MarshalCanonical encodes the request as one-line canonical JSON
// (struct field order, no indentation). Normalized requests with equal
// fields encode byte-identically.
func (r Request) MarshalCanonical() ([]byte, error) {
	return json.Marshal(r)
}

// Runtime carries the execution knobs of one run — everything that
// shapes how an experiment executes without affecting its report bytes.
// The zero value is ready to use.
type Runtime struct {
	// Workers bounds the fan-out of the parallel sweep loops; values
	// below 1 select runtime.GOMAXPROCS(0). Reports are byte-identical
	// for any value.
	Workers int
	// Observer receives the structured lifecycle events of every engine
	// the run drives; it must be safe for concurrent use.
	Observer obs.Observer
	// Phases, when set, records per-experiment wall time.
	Phases *obs.PhaseTimer
}

// RunRequest executes the experiment described by req under ctx and
// stamps the result's provenance with the normalized inputs. It is the
// one entrypoint every caller uses: the CLIs, the serving daemon and
// the public facade. The worker count is deliberately not recorded in
// provenance: reports are byte-identical for any rt.Workers, and
// provenance only holds inputs that determine the numbers.
func RunRequest(ctx context.Context, req Request, rt Runtime) (Result, error) {
	if err := req.Normalize(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	e := registry[req.Experiment]
	if rt.Phases != nil {
		defer rt.Phases.Start(req.Experiment)()
	}
	res, err := e.runner(ctx, req, rt)
	if err != nil {
		return nil, err
	}
	res.setProvenance(req.provenance(e.desc))
	return res, nil
}

// provenance returns the report provenance of a normalized request: its
// inputs field for field, under the registry title.
func (r Request) provenance(title string) report.Provenance {
	return report.Provenance{
		Experiment: r.Experiment,
		Title:      title,
		Seed:       r.Seed,
		Scale:      r.Scale,
		SimTimeNs:  r.SimTimeNs,
		Mixes:      r.Mixes,
		Fleet:      r.Fleet,
		Mapping:    r.Mapping,
		Disturb:    r.Disturb,
		Version:    r.Version,
	}
}
