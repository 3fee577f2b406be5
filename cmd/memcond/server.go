package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"memcon/internal/experiments"
	"memcon/internal/obs"
	"memcon/internal/report"
	"memcon/internal/servecache"
)

// Config tunes the daemon.
type Config struct {
	// Workers bounds concurrently running experiments (the worker
	// pool); values below 1 select 4.
	Workers int
	// Queue bounds requests waiting for a worker slot beyond the ones
	// running; a request arriving past the bound is answered 503.
	// Values below 1 select 64.
	Queue int
	// Timeout is the per-request run budget; an experiment exceeding it
	// is cancelled and answered 504. Zero selects 2 minutes.
	Timeout time.Duration
	// CacheEntries bounds the result cache's memory tier (LRU); zero
	// selects 1024.
	CacheEntries int
	// CacheMemBytes bounds the memory tier's payload bytes; zero
	// selects unbounded.
	CacheMemBytes int64
	// CacheDir, when set, enables the persistent disk tier: every
	// computed result is written through to one content-addressed file
	// under this directory, and a restarted daemon serves its prior
	// corpus from there without re-running anything.
	CacheDir string
	// CacheDiskBytes bounds the disk tier; zero selects unbounded.
	CacheDiskBytes int64
	// Version is the build identifier stamped into report provenance
	// when the client does not supply one.
	Version string
	// ProgressInterval is the SSE progress snapshot cadence; zero
	// selects 250ms.
	ProgressInterval time.Duration
	// MaxScale caps the scale a request may ask for (a serving-side
	// cost guard); zero means no cap.
	MaxScale float64
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 4
	}
	if c.Queue < 1 {
		c.Queue = 64
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Minute
	}
	if c.CacheEntries < 1 {
		c.CacheEntries = 1024
	}
	if c.ProgressInterval <= 0 {
		c.ProgressInterval = 250 * time.Millisecond
	}
	return c
}

// errBusy is returned when the wait queue is full; mapped to 503.
var errBusy = errors.New("memcond: worker queue full")

// Server is the experiment-serving daemon: the experiment
// registry behind an HTTP/JSON API with a content-addressed result
// cache, a bounded worker pool, SSE progress, and Prometheus metrics.
type Server struct {
	cfg      Config
	cache    *servecache.Cache
	store    *servecache.Store // nil without -cache-dir
	reg      *obs.Registry
	engineMx *obs.Metrics // aggregates engine lifecycle events across all runs
	sem      chan struct{}
	queued   atomic.Int64
	draining atomic.Bool
	ready    atomic.Bool // flipped by WarmBoot; gates /readyz
	hubs     *hubSet

	// run executes one normalized request and returns the canonical
	// report JSON. Tests replace it to make timing-sensitive paths
	// (cancellation, drain, singleflight) deterministic.
	run func(ctx context.Context, req experiments.Request, rt experiments.Runtime) ([]byte, error)

	requests     *obs.Counter
	cacheHits    *obs.Counter
	cacheDisk    *obs.Counter
	cacheMisses  *obs.Counter
	cacheShared  *obs.Counter
	notModified  *obs.Counter
	gzipServed   *obs.Counter
	errorsTotal  *obs.Counter
	busyTotal    *obs.Counter
	timeouts     *obs.Counter
	revalidates  *obs.Counter
	revalDrifted *obs.Counter
	inflight     *obs.Gauge
	latency      *obs.Histogram

	// Scrape-time gauges filled from cache/store snapshots.
	memEntries  *obs.Gauge
	memBytes    *obs.Gauge
	diskEntries *obs.Gauge
	diskBytes   *obs.Gauge
	diskCorrupt *obs.Gauge
}

// NewServer builds the daemon with the given configuration. When
// cfg.CacheDir is set the persistent disk tier is opened (its warm-boot
// index scan runs in WarmBoot, which the caller must invoke).
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	var store *servecache.Store
	if cfg.CacheDir != "" {
		var err error
		store, err = servecache.OpenStore(cfg.CacheDir, cfg.CacheDiskBytes)
		if err != nil {
			return nil, err
		}
	}
	reg := obs.NewRegistry()
	s := &Server{
		cfg: cfg,
		cache: servecache.NewWithOptions(servecache.Options{
			MaxEntries: cfg.CacheEntries,
			MaxBytes:   cfg.CacheMemBytes,
			Store:      store,
		}),
		store:    store,
		reg:      reg,
		engineMx: obs.NewMetrics(reg),
		sem:      make(chan struct{}, cfg.Workers),
		hubs:     newHubSet(),

		requests:     reg.Counter("memcond_requests_total", "experiment requests received"),
		cacheHits:    reg.Counter("memcond_cache_hits_total", "requests served from the memory tier"),
		cacheDisk:    reg.Counter("memcond_cache_disk_hits_total", "requests served from the disk tier"),
		cacheMisses:  reg.Counter("memcond_cache_misses_total", "requests that ran an experiment"),
		cacheShared:  reg.Counter("memcond_cache_shared_total", "requests that joined an in-flight identical run"),
		notModified:  reg.Counter("memcond_not_modified_total", "requests answered 304 via If-None-Match"),
		gzipServed:   reg.Counter("memcond_gzip_total", "responses served from the precomputed gzip variant"),
		errorsTotal:  reg.Counter("memcond_errors_total", "requests answered with a non-2xx status"),
		busyTotal:    reg.Counter("memcond_busy_total", "requests rejected because the worker queue was full"),
		timeouts:     reg.Counter("memcond_timeouts_total", "runs cancelled by the per-request timeout"),
		revalidates:  reg.Counter("memcond_revalidate_total", "revalidation requests processed"),
		revalDrifted: reg.Counter("memcond_revalidate_drift_total", "revalidations that found drift"),
		inflight:     reg.Gauge("memcond_inflight_runs", "experiments currently executing", false),
		latency: reg.Histogram("memcond_request_ns",
			"request latency in nanoseconds (log2 buckets)", 4096, 32),

		memEntries:  reg.Gauge("memcond_cache_mem_entries", "memory-tier entries", false),
		memBytes:    reg.Gauge("memcond_cache_mem_bytes", "memory-tier payload bytes", false),
		diskEntries: reg.Gauge("memcond_cache_disk_entries", "disk-tier entries", false),
		diskBytes:   reg.Gauge("memcond_cache_disk_bytes", "disk-tier bytes", false),
		diskCorrupt: reg.Gauge("memcond_cache_disk_corrupt_dropped", "disk entries dropped after failing verification", false),
	}
	s.run = s.realRun
	return s, nil
}

// WarmBoot runs the disk tier's index scan (if any) and then marks the
// server ready; /readyz answers 503 until it completes, so a load
// balancer does not route to a daemon still indexing its corpus. It
// returns the number of persisted entries indexed. Serving is safe
// before WarmBoot — disk reads verify files directly — so main runs
// this concurrently with the listener.
func (s *Server) WarmBoot() (int, error) {
	n := 0
	var err error
	if s.store != nil {
		n, err = s.store.Scan()
	}
	s.ready.Store(true)
	return n, err
}

// realRun executes one experiment on the registry and renders its
// canonical report. rt.Observer already carries the progress and
// metrics observers.
func (s *Server) realRun(ctx context.Context, req experiments.Request, rt experiments.Runtime) ([]byte, error) {
	res, err := experiments.RunRequest(ctx, req, rt)
	if err != nil {
		return nil, err
	}
	return res.Report().MarshalCanonical()
}

// Handler returns the daemon's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/experiments", s.handleList)
	mux.HandleFunc("POST /v1/experiments/{id}", s.handleExperiment)
	mux.HandleFunc("POST /v1/revalidate", s.handleRevalidate)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

// SetDraining flips the health endpoint to "draining"; main calls it
// when SIGTERM arrives, before http.Server.Shutdown stops accepting.
func (s *Server) SetDraining() { s.draining.Store(true) }

// acquire claims a worker slot, waiting in the bounded queue. It
// returns errBusy when the queue is full and the context error when
// the caller gives up first.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.Queue) {
		s.queued.Add(-1)
		s.busyTotal.Inc()
		return errBusy
	}
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() { <-s.sem }

// decodeRequest reads a request body (possibly empty) onto the
// defaults for id: absent fields keep their defaults, present fields —
// including an explicit zero seed — win.
func (s *Server) decodeRequest(r *http.Request, id string) (experiments.Request, error) {
	req := experiments.DefaultRequest(id)
	req.Version = s.cfg.Version
	body, err := readBody(r)
	if err != nil {
		return req, err
	}
	if len(bytes.TrimSpace(body)) > 0 {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return req, fmt.Errorf("decoding request body: %w", err)
		}
	}
	if req.Experiment == "" {
		req.Experiment = id
	} else if req.Experiment != id {
		return req, fmt.Errorf("body experiment %q conflicts with URL id %q", req.Experiment, id)
	}
	if s.cfg.MaxScale > 0 && req.Scale > s.cfg.MaxScale {
		return req, fmt.Errorf("scale %v exceeds this server's cap %v", req.Scale, s.cfg.MaxScale)
	}
	return req, nil
}

// computeFor builds the singleflight computation for one normalized
// request: claim a pool slot, run under the per-request timeout with
// the progress hub and engine metrics attached, and render canonical
// JSON. The context it receives belongs to the flight (alive while any
// caller waits), not to a single HTTP request.
func (s *Server) computeFor(req experiments.Request, key servecache.Key) func(context.Context) ([]byte, error) {
	return func(fctx context.Context) ([]byte, error) {
		if err := s.acquire(fctx); err != nil {
			return nil, err
		}
		defer s.release()
		s.inflight.Add(1)
		defer s.inflight.Add(-1)

		runCtx, cancel := context.WithTimeout(fctx, s.cfg.Timeout)
		defer cancel()

		hub, release := s.hubs.acquire(key)
		defer release()
		stopPublish := hub.publish(s.cfg.ProgressInterval)
		defer stopPublish()

		data, err := s.run(runCtx, req, experiments.Runtime{
			Observer: obs.Tee(s.engineMx, hub),
		})
		if err != nil && runCtx.Err() != nil && fctx.Err() == nil {
			// The deadline (not a caller) killed the run.
			s.timeouts.Inc()
			return nil, fmt.Errorf("experiment %s: %w", req.Experiment, context.DeadlineExceeded)
		}
		return data, err
	}
}

// handleExperiment serves POST /v1/experiments/{id}: resolve the
// request against the cache (singleflight on concurrent identical
// requests), running the experiment on the worker pool on a miss. With
// Accept: text/event-stream the response is an SSE stream of progress
// snapshots ending in the result.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.requests.Inc()
	id := r.PathValue("id")
	if _, err := experiments.Describe(id); err != nil {
		s.fail(w, http.StatusNotFound, err)
		return
	}
	req, err := s.decodeRequest(r, id)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if err := req.Normalize(); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	key := servecache.Key(req.CacheKey())
	reqJSON, err := req.MarshalCanonical()
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}

	// Warm 304 fast path: the client already holds the bytes for this
	// key (ETag = cache key) and a tier has them resident — answer with
	// zero encoding, compression, or body work.
	if etagMatch(r.Header.Get("If-None-Match"), key) {
		if _, tier, ok := s.cache.Probe(key); ok {
			s.countOutcome(tier)
			s.writeNotModified(w, key, tier)
			s.latency.Observe(time.Since(start).Nanoseconds())
			return
		}
	}

	if wantsSSE(r) {
		s.streamExperiment(w, r, req, key, reqJSON)
		s.latency.Observe(time.Since(start).Nanoseconds())
		return
	}

	entry, outcome, err := s.cache.Do(r.Context(), key, reqJSON, s.computeFor(req, key))
	s.countOutcome(outcome)
	if err != nil {
		s.failRun(w, r, err)
		return
	}
	s.writeEntry(w, r, entry, outcome, key)
	s.latency.Observe(time.Since(start).Nanoseconds())
}

// etagMatch reports whether an If-None-Match header names the entity
// tag of key (a quoted cache-key hex, weak validators tolerated) or is
// the wildcard.
func etagMatch(inm string, key servecache.Key) bool {
	if inm == "" {
		return false
	}
	want := key.String()
	for _, part := range strings.Split(inm, ",") {
		tag := strings.TrimSpace(part)
		if tag == "*" {
			return true
		}
		tag = strings.TrimPrefix(tag, "W/")
		tag = strings.Trim(tag, `"`)
		if tag == want {
			return true
		}
	}
	return false
}

// acceptsGzip reports whether the client's Accept-Encoding admits the
// precomputed gzip variant.
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc, q, hasQ := strings.Cut(strings.TrimSpace(part), ";")
		if strings.TrimSpace(enc) != "gzip" {
			continue
		}
		if hasQ && strings.TrimSpace(q) == "q=0" {
			return false
		}
		return true
	}
	return false
}

// writeNotModified answers 304: headers only, no body.
func (s *Server) writeNotModified(w http.ResponseWriter, key servecache.Key, tier servecache.Outcome) {
	s.notModified.Inc()
	h := w.Header()
	h.Set("ETag", `"`+key.String()+`"`)
	h.Set("X-Memcond-Cache", tier.String())
	h.Set("X-Memcond-Key", key.String())
	w.WriteHeader(http.StatusNotModified)
}

// writeEntry serves a cache entry zero-copy: the stored wire bytes
// (identity or precomputed gzip, negotiated via Accept-Encoding) go
// straight to the response writer, and a matching If-None-Match
// collapses to 304. No encoding or compression happens here.
func (s *Server) writeEntry(w http.ResponseWriter, r *http.Request, e *servecache.Entry, outcome servecache.Outcome, key servecache.Key) {
	if etagMatch(r.Header.Get("If-None-Match"), key) {
		s.writeNotModified(w, key, outcome)
		return
	}
	h := w.Header()
	h.Set("ETag", `"`+key.String()+`"`)
	h.Set("X-Memcond-Cache", outcome.String())
	h.Set("X-Memcond-Key", key.String())
	h.Set("Content-Type", "application/json")
	h.Set("Vary", "Accept-Encoding")
	if e.Gzip != nil && acceptsGzip(r) {
		s.gzipServed.Inc()
		h.Set("Content-Encoding", "gzip")
		h.Set("Content-Length", strconv.Itoa(len(e.Gzip)))
		w.Write(e.Gzip)
		return
	}
	h.Set("Content-Length", strconv.Itoa(len(e.Data)))
	w.Write(e.Data)
}

func (s *Server) countOutcome(o servecache.Outcome) {
	switch o {
	case servecache.Hit:
		s.cacheHits.Inc()
	case servecache.Disk:
		s.cacheDisk.Inc()
	case servecache.Miss:
		s.cacheMisses.Inc()
	case servecache.Shared:
		s.cacheShared.Inc()
	}
}

// failRun maps a run error onto a status code: queue overflow is 503,
// the per-request deadline is 504, a client that vanished gets nothing,
// anything else is 500.
func (s *Server) failRun(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, errBusy):
		s.fail(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded):
		s.fail(w, http.StatusGatewayTimeout, err)
	case r.Context().Err() != nil:
		// The client is gone; there is nobody to answer.
		s.errorsTotal.Inc()
	default:
		s.fail(w, http.StatusInternalServerError, err)
	}
}

func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	s.errorsTotal.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// revalidateResponse is the POST /v1/revalidate document.
type revalidateResponse struct {
	Experiment string             `json:"experiment"`
	Key        string             `json:"key"`
	Clean      bool               `json:"clean"`
	Updated    bool               `json:"updated"`
	Diff       *report.DiffReport `json:"diff"`
}

// handleRevalidate re-runs a cached entry and diffs the fresh report
// against the cached bytes — the serving form of `memconsim -diff`.
// A clean diff confirms the entry; a drifted one replaces the entry
// with the fresh report (the skelly-style incremental update) and says
// so, leaving the diff document as the evidence.
func (s *Server) handleRevalidate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.requests.Inc()
	s.revalidates.Inc()
	var probe struct {
		Experiment string `json:"experiment"`
	}
	body, err := readBody(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("decoding request body: %w", err))
		return
	}
	if probe.Experiment == "" {
		s.fail(w, http.StatusBadRequest, errors.New("revalidate body must name an experiment"))
		return
	}
	if _, err := experiments.Describe(probe.Experiment); err != nil {
		s.fail(w, http.StatusNotFound, err)
		return
	}
	req := experiments.DefaultRequest(probe.Experiment)
	req.Version = s.cfg.Version
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("decoding request body: %w", err))
		return
	}
	if err := req.Normalize(); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	key := servecache.Key(req.CacheKey())
	entry, ok := s.cache.Lookup(key)
	if !ok {
		s.fail(w, http.StatusNotFound, fmt.Errorf("no cached entry for key %s (run the experiment first)", key))
		return
	}

	fresh, err := s.computeFor(req, key)(r.Context())
	if err != nil {
		s.failRun(w, r, err)
		return
	}
	saved, err := report.DecodeBytes(entry.Data)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, fmt.Errorf("cached entry corrupt: %w", err))
		return
	}
	rerun, err := report.DecodeBytes(fresh)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	d := report.Diff(saved, rerun, report.Tolerance{})
	resp := revalidateResponse{
		Experiment: req.Experiment,
		Key:        key.String(),
		Clean:      d.Clean(),
		Diff:       d,
	}
	if !d.Clean() {
		s.revalDrifted.Inc()
		reqJSON, _ := req.MarshalCanonical()
		s.cache.Put(key, reqJSON, fresh)
		resp.Updated = true
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Memcond-Key", key.String())
	json.NewEncoder(w).Encode(resp)
	s.latency.Observe(time.Since(start).Nanoseconds())
}

// handleList serves the experiment catalogue.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	type item struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	items := make([]item, 0, len(experiments.IDs()))
	for _, id := range experiments.IDs() {
		desc, err := experiments.Describe(id)
		if err != nil {
			s.fail(w, http.StatusInternalServerError, err)
			return
		}
		items = append(items, item{ID: id, Title: desc})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(items)
}

// handleMetrics serves the Prometheus text exposition: the memcond_*
// request family (per tier) plus the memcon_* engine aggregates of
// every run the daemon executed. Tier gauges are refreshed from cache
// snapshots at scrape time.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	mem := s.cache.StatsSnapshot()
	s.memEntries.Set(float64(mem.Entries))
	s.memBytes.Set(float64(mem.Bytes))
	if s.store != nil {
		disk := s.store.StatsSnapshot()
		s.diskEntries.Set(float64(disk.Entries))
		s.diskBytes.Set(float64(disk.Bytes))
		s.diskCorrupt.Set(float64(disk.Corrupt))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WritePrometheus(w)
}

// handleHealthz is pure liveness: 200 as long as the process can
// answer, even while draining — a draining daemon is alive, it just
// should not receive NEW traffic, which is /readyz's job.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	doc := map[string]any{
		"status":   "ok",
		"ready":    s.ready.Load(),
		"draining": s.draining.Load(),
		"cache":    s.cache.StatsSnapshot(),
		"workers":  s.cfg.Workers,
	}
	if s.store != nil {
		doc["disk"] = s.store.StatsSnapshot()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(doc)
}

// handleReadyz is the routability signal for load balancers: 503
// before the warm-boot scan completes (the daemon would answer, but
// its persisted corpus is not fully indexed yet) and 503 again from
// the moment SIGTERM starts the drain — so balancers stop routing
// before the listener actually closes.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	switch {
	case s.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"status": "draining"})
	case !s.ready.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"status": "starting"})
	default:
		json.NewEncoder(w).Encode(map[string]string{"status": "ready"})
	}
}

func wantsSSE(r *http.Request) bool {
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		return true
	}
	return r.URL.Query().Get("progress") == "sse"
}

func readBody(r *http.Request) ([]byte, error) {
	body := http.MaxBytesReader(nil, r.Body, 1<<20)
	defer body.Close()
	b := &bytes.Buffer{}
	if _, err := b.ReadFrom(body); err != nil {
		return nil, fmt.Errorf("reading request body: %w", err)
	}
	return b.Bytes(), nil
}
