package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memcon/internal/experiments"
	"memcon/internal/obs"
	"memcon/internal/report"
	"memcon/internal/servecache"
)

// smallBody is a cheap real-run request (the same working point the
// CLI's regression tests use).
const smallBody = `{"scale":0.05,"simtime_ns":200000,"mixes":3}`

// mustServer builds a ready-to-serve daemon: NewServer plus the
// warm-boot scan, so /readyz is green from the first request.
func mustServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if _, err := srv.WarmBoot(); err != nil {
		t.Fatalf("WarmBoot: %v", err)
	}
	return srv
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, buf.Bytes()
}

// TestHitMissByteIdentical runs a real experiment twice: the second
// response must come from the cache and carry the exact bytes of the
// first — the determinism contract, served.
func TestHitMissByteIdentical(t *testing.T) {
	srv := mustServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	url := ts.URL + "/v1/experiments/fig4"
	resp1, body1 := postJSON(t, url, smallBody)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first POST status %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Memcond-Cache"); got != "miss" {
		t.Errorf("first POST cache header = %q, want miss", got)
	}
	if _, err := report.DecodeBytes(body1); err != nil {
		t.Fatalf("response is not a report document: %v", err)
	}

	resp2, body2 := postJSON(t, url, smallBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second POST status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Memcond-Cache"); got != "hit" {
		t.Errorf("second POST cache header = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cache hit bytes differ from the original run")
	}
	if resp1.Header.Get("X-Memcond-Key") != resp2.Header.Get("X-Memcond-Key") {
		t.Error("identical requests produced different cache keys")
	}

	// A different seed is a different key and a fresh run.
	resp3, _ := postJSON(t, url, `{"seed":7,"scale":0.05,"simtime_ns":200000,"mixes":3}`)
	if got := resp3.Header.Get("X-Memcond-Cache"); got != "miss" {
		t.Errorf("different-seed POST cache header = %q, want miss", got)
	}
	if resp3.Header.Get("X-Memcond-Key") == resp1.Header.Get("X-Memcond-Key") {
		t.Error("different seed mapped to the same cache key")
	}
}

// stub installs a fake run on the server and returns a channel that
// receives the run context each time the stub starts.
func stub(srv *Server, fn func(ctx context.Context, req experiments.Request, rt experiments.Runtime) ([]byte, error)) {
	srv.run = fn
}

func TestSeedZeroAndDefaultsDecode(t *testing.T) {
	srv := mustServer(t, Config{Version: "srv-v1"})
	stub(srv, func(_ context.Context, req experiments.Request, _ experiments.Runtime) ([]byte, error) {
		return req.MarshalCanonical()
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Empty body: pure defaults, server version stamped.
	resp, body := postJSON(t, ts.URL+"/v1/experiments/fig4", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got experiments.Request
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	want := experiments.DefaultRequest("fig4")
	want.Version = "srv-v1"
	if err := want.Normalize(); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("defaults request = %+v, want %+v", got, want)
	}

	// Explicit zero seed survives.
	_, body = postJSON(t, ts.URL+"/v1/experiments/fig4", `{"seed":0}`)
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Seed != 0 {
		t.Errorf("explicit seed 0 became %d", got.Seed)
	}

	// Client version overrides the server default.
	_, body = postJSON(t, ts.URL+"/v1/experiments/fig4", `{"version":"client-v2"}`)
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Version != "client-v2" {
		t.Errorf("client version = %q, want client-v2", got.Version)
	}
}

func TestRequestErrors(t *testing.T) {
	srv := mustServer(t, Config{MaxScale: 0.5})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name, path, body string
		want             int
	}{
		{"unknown id", "/v1/experiments/nope", "", http.StatusNotFound},
		{"bad json", "/v1/experiments/fig4", "{", http.StatusBadRequest},
		{"unknown field", "/v1/experiments/fig4", `{"sede":1}`, http.StatusBadRequest},
		{"conflicting id", "/v1/experiments/fig4", `{"experiment":"fig6"}`, http.StatusBadRequest},
		{"invalid scale", "/v1/experiments/fig4", `{"scale":-1}`, http.StatusBadRequest},
		{"over scale cap", "/v1/experiments/fig4", `{"scale":0.9}`, http.StatusBadRequest},
		{"NaN mitigation", "/v1/experiments/disturb-mitigation", `{"scale":0.05,"disturb":"para:NaN"}`, http.StatusBadRequest},
		{"revalidate no experiment", "/v1/revalidate", `{"scale":0.05}`, http.StatusBadRequest},
		{"revalidate unknown id", "/v1/revalidate", `{"experiment":"nope"}`, http.StatusNotFound},
		{"revalidate uncached", "/v1/revalidate", `{"experiment":"fig4"}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error document missing: %s", tc.name, body)
		}
	}
	if n := srv.errorsTotal.Value(); n != int64(len(cases)) {
		t.Errorf("errors_total = %d, want %d", n, len(cases))
	}
}

func TestList(t *testing.T) {
	srv := mustServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var items []struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&items); err != nil {
		t.Fatal(err)
	}
	if len(items) != len(experiments.IDs()) {
		t.Errorf("catalogue has %d items, want %d", len(items), len(experiments.IDs()))
	}
	for _, it := range items {
		if it.ID == "" || it.Title == "" {
			t.Errorf("catalogue item incomplete: %+v", it)
		}
	}
}

// TestSingleflightShared collapses concurrent identical requests onto
// one run: exactly one miss, the rest shared, all byte-identical.
func TestSingleflightShared(t *testing.T) {
	srv := mustServer(t, Config{Workers: 4})
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	var runCount atomic.Int64
	stub(srv, func(ctx context.Context, req experiments.Request, _ experiments.Runtime) ([]byte, error) {
		runCount.Add(1)
		once.Do(func() { close(started) })
		<-release
		return []byte(`{"shared":true}`), nil
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 6
	var wg sync.WaitGroup
	outcomes := make([]string, n)
	bodies := make([][]byte, n)
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, body := postJSON(t, ts.URL+"/v1/experiments/fig4", smallBody)
		outcomes[0], bodies[0] = resp.Header.Get("X-Memcond-Cache"), body
	}()
	<-started
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/experiments/fig4", smallBody)
			outcomes[i], bodies[i] = resp.Header.Get("X-Memcond-Cache"), body
		}()
	}
	// Let the followers join the flight before releasing the run (the
	// cache counts Shared at join time, not completion time).
	deadline := time.Now().Add(2 * time.Second)
	for srv.cache.StatsSnapshot().Shared < n-1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := runCount.Load(); n != 1 {
		t.Errorf("experiment ran %d times, want 1", n)
	}
	var miss, shared int
	for i := 0; i < n; i++ {
		switch outcomes[i] {
		case "miss":
			miss++
		case "shared":
			shared++
		default:
			t.Errorf("caller %d outcome %q", i, outcomes[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("caller %d got different bytes", i)
		}
	}
	if miss != 1 || shared != n-1 {
		t.Errorf("%d miss + %d shared, want 1 + %d", miss, shared, n-1)
	}
}

// TestSSEProgress streams a stubbed run: at least one progress
// snapshot with the emitted event counts, then the outcome and the
// result reassembled from its data lines.
func TestSSEProgress(t *testing.T) {
	srv := mustServer(t, Config{ProgressInterval: 5 * time.Millisecond})
	release := make(chan struct{})
	resultDoc := "{\n  \"doc\": \"line two\"\n}\n"
	stub(srv, func(ctx context.Context, req experiments.Request, rt experiments.Runtime) ([]byte, error) {
		for i := 0; i < 5; i++ {
			rt.Observer.OnEvent(obs.Event{Kind: obs.KindWrite, Page: uint32(i)})
		}
		rt.Observer.OnEvent(obs.Event{Kind: obs.KindTestQueued})
		<-release
		return []byte(resultDoc), nil
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req, _ := http.NewRequest("POST", ts.URL+"/v1/experiments/fig4", strings.NewReader(smallBody))
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	var (
		sawProgress  bool
		outcomeLine  string
		resultLines  []string
		event        string
		data         []string
		releasedOnce sync.Once
	)
	finish := func() {
		switch event {
		case "progress":
			joined := strings.Join(data, "\n")
			var snap struct {
				Total  int64            `json:"total"`
				Events map[string]int64 `json:"events"`
			}
			if err := json.Unmarshal([]byte(joined), &snap); err != nil {
				t.Fatalf("bad progress snapshot %q: %v", joined, err)
			}
			if snap.Events["write"] == 5 && snap.Events["test_queued"] == 1 && snap.Total == 6 {
				sawProgress = true
				// The run holds until we have proof of a snapshot.
				releasedOnce.Do(func() { close(release) })
			}
		case "outcome":
			outcomeLine = strings.Join(data, "\n")
		case "result":
			resultLines = data
		}
		event, data = "", nil
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = append(data, strings.TrimPrefix(line, "data: "))
		case line == "":
			finish()
		}
	}
	finish()

	if !sawProgress {
		t.Error("no progress snapshot with the emitted counts")
	}
	if !strings.Contains(outcomeLine, `"cache":"miss"`) {
		t.Errorf("outcome event = %q, want cache miss", outcomeLine)
	}
	got := strings.Join(resultLines, "\n") + "\n"
	if got != resultDoc {
		t.Errorf("result reassembled to %q, want %q", got, resultDoc)
	}
}

// TestCancellationMidRun pins that a client abandoning its request
// cancels the underlying run and caches nothing.
func TestCancellationMidRun(t *testing.T) {
	srv := mustServer(t, Config{})
	started := make(chan struct{})
	stopped := make(chan error, 1)
	stub(srv, func(ctx context.Context, req experiments.Request, _ experiments.Runtime) ([]byte, error) {
		close(started)
		<-ctx.Done()
		stopped <- ctx.Err()
		return nil, ctx.Err()
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/experiments/fig4", strings.NewReader(smallBody))
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	<-started
	cancel()
	if err := <-errc; err == nil {
		t.Error("cancelled request returned no error to the client")
	}
	select {
	case err := <-stopped:
		if err != context.Canceled {
			t.Errorf("run stopped with %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("run context never cancelled after the client left")
	}
	if n := srv.cache.StatsSnapshot().Entries; n != 0 {
		t.Errorf("abandoned run left %d cache entries", n)
	}
}

// TestTimeout pins the per-request budget: a run exceeding it is
// cancelled and answered 504.
func TestTimeout(t *testing.T) {
	srv := mustServer(t, Config{Timeout: 20 * time.Millisecond})
	stub(srv, func(ctx context.Context, req experiments.Request, _ experiments.Runtime) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/experiments/fig4", smallBody)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
	if n := srv.timeouts.Value(); n != 1 {
		t.Errorf("timeouts_total = %d, want 1", n)
	}
	if n := srv.cache.StatsSnapshot().Entries; n != 0 {
		t.Errorf("timed-out run left %d cache entries", n)
	}
}

// TestBusy fills the one-worker pool and its one-deep queue; the third
// distinct request must be refused with 503 immediately.
func TestBusy(t *testing.T) {
	srv := mustServer(t, Config{Workers: 1, Queue: 1})
	started := make(chan struct{}, 3)
	release := make(chan struct{})
	stub(srv, func(ctx context.Context, req experiments.Request, _ experiments.Runtime) ([]byte, error) {
		started <- struct{}{}
		select {
		case <-release:
			return []byte(`{}`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(seed int) (int, string) {
		resp, _ := postJSON(t, ts.URL+"/v1/experiments/fig4",
			fmt.Sprintf(`{"seed":%d,"scale":0.05,"simtime_ns":200000,"mixes":3}`, seed))
		return resp.StatusCode, resp.Header.Get("X-Memcond-Cache")
	}

	codes := make(chan int, 2)
	go func() { c, _ := post(1); codes <- c }()
	<-started // request 1 occupies the worker
	go func() { c, _ := post(2); codes <- c }()
	deadline := time.Now().Add(2 * time.Second)
	for srv.queued.Load() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	if code, _ := post(3); code != http.StatusServiceUnavailable {
		t.Errorf("third request status %d, want 503", code)
	}
	if n := srv.busyTotal.Value(); n != 1 {
		t.Errorf("busy_total = %d, want 1", n)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("queued request status %d, want 200", code)
		}
	}
}

// TestRevalidate pins the serving form of -diff: clean on an
// undrifted entry, a populated diff plus a cache refresh on injected
// drift, and clean again afterwards.
func TestRevalidate(t *testing.T) {
	srv := mustServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	runURL := ts.URL + "/v1/experiments/fig4"
	resp, original := postJSON(t, runURL, smallBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seeding run failed: %d", resp.StatusCode)
	}
	keyHex := resp.Header.Get("X-Memcond-Key")

	revBody := `{"experiment":"fig4","scale":0.05,"simtime_ns":200000,"mixes":3}`
	var rev struct {
		Experiment string             `json:"experiment"`
		Key        string             `json:"key"`
		Clean      bool               `json:"clean"`
		Updated    bool               `json:"updated"`
		Diff       *report.DiffReport `json:"diff"`
	}
	resp, body := postJSON(t, ts.URL+"/v1/revalidate", revBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("revalidate status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &rev); err != nil {
		t.Fatal(err)
	}
	if !rev.Clean || rev.Updated || rev.Key != keyHex {
		t.Errorf("undrifted revalidate = %+v", rev)
	}

	// Inject drift: overwrite the cached entry with a different run's
	// bytes (same key, different seed's report).
	req := experiments.DefaultRequest("fig4")
	req.Scale, req.SimTimeNs, req.Mixes = 0.05, 200000, 3
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	key := servecache.Key(req.CacheKey())
	drifted := req
	drifted.Seed = 9
	res, err := experiments.RunRequest(context.Background(), drifted, experiments.Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	driftedBytes, err := res.Report().MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(driftedBytes, original) {
		t.Fatal("drift injection produced identical bytes; pick a different seed")
	}
	srv.cache.Put(key, nil, driftedBytes)

	resp, body = postJSON(t, ts.URL+"/v1/revalidate", revBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drifted revalidate status %d: %s", resp.StatusCode, body)
	}
	rev = struct {
		Experiment string             `json:"experiment"`
		Key        string             `json:"key"`
		Clean      bool               `json:"clean"`
		Updated    bool               `json:"updated"`
		Diff       *report.DiffReport `json:"diff"`
	}{}
	if err := json.Unmarshal(body, &rev); err != nil {
		t.Fatal(err)
	}
	if rev.Clean || !rev.Updated {
		t.Errorf("drifted revalidate = clean %v updated %v, want drift + update", rev.Clean, rev.Updated)
	}
	if rev.Diff == nil || rev.Diff.Clean() {
		t.Error("drifted revalidate carried no diff entries")
	}
	if n := srv.revalDrifted.Value(); n != 1 {
		t.Errorf("revalidate_drift_total = %d, want 1", n)
	}

	// The refresh healed the entry: revalidating again is clean, and a
	// plain request now serves the fresh bytes.
	resp, body = postJSON(t, ts.URL+"/v1/revalidate", revBody)
	if err := json.Unmarshal(body, &rev); err != nil {
		t.Fatal(err)
	}
	if !rev.Clean {
		t.Errorf("post-refresh revalidate not clean: %s", body)
	}
	_, served := postJSON(t, runURL, smallBody)
	if !bytes.Equal(served, original) {
		t.Error("healed entry does not serve the canonical run bytes")
	}
}

// TestMetricsEndpoint checks the Prometheus exposition carries the
// request counters.
func TestMetricsEndpoint(t *testing.T) {
	srv := mustServer(t, Config{})
	stub(srv, func(context.Context, experiments.Request, experiments.Runtime) ([]byte, error) {
		return []byte(`{}`), nil
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postJSON(t, ts.URL+"/v1/experiments/fig4", smallBody)
	postJSON(t, ts.URL+"/v1/experiments/fig4", smallBody)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, want := range []string{
		"memcond_requests_total 2",
		"memcond_cache_hits_total 1",
		"memcond_cache_misses_total 1",
		"memcond_request_ns",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestGracefulDrain pins SIGTERM semantics at the http.Server level:
// Shutdown waits for the in-flight run to finish and the client still
// receives its full response.
func TestGracefulDrain(t *testing.T) {
	srv := mustServer(t, Config{})
	started := make(chan struct{})
	release := make(chan struct{})
	stub(srv, func(ctx context.Context, req experiments.Request, _ experiments.Runtime) ([]byte, error) {
		close(started)
		select {
		case <-release:
			return []byte(`{"drained":true}`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)

	url := "http://" + ln.Addr().String() + "/v1/experiments/fig4"
	type reply struct {
		code int
		body []byte
	}
	replies := make(chan reply, 1)
	go func() {
		resp, err := http.Post(url, "application/json", strings.NewReader(smallBody))
		if err != nil {
			t.Errorf("in-flight request failed: %v", err)
			replies <- reply{}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		replies <- reply{resp.StatusCode, buf.Bytes()}
	}()
	<-started

	srv.SetDraining()
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- hs.Shutdown(context.Background()) }()

	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a request was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r := <-replies
	if r.code != http.StatusOK || !strings.Contains(string(r.body), "drained") {
		t.Errorf("drained request reply = %d %q", r.code, r.body)
	}

	// New connections are refused after the drain.
	if _, err := http.Post(url, "application/json", strings.NewReader(smallBody)); err == nil {
		t.Error("request accepted after drain completed")
	}
}

// TestReadyzLifecycle pins both unready windows: before the warm-boot
// scan completes and after SIGTERM starts the drain. /healthz stays
// 200 throughout — the process is alive in both windows, it just must
// not receive new traffic.
func TestReadyzLifecycle(t *testing.T) {
	srv, err := NewServer(Config{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	// Window 1: listener up, warm boot not yet run.
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "starting") {
		t.Errorf("pre-warm-boot /readyz = %d %q, want 503 starting", code, body)
	}
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, `"ready":false`) {
		t.Errorf("pre-warm-boot /healthz = %d %q, want 200 with ready:false", code, body)
	}

	if _, err := srv.WarmBoot(); err != nil {
		t.Fatal(err)
	}
	if code, body := get("/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Errorf("warm /readyz = %d %q, want 200 ready", code, body)
	}

	// Window 2: drain started.
	srv.SetDraining()
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Errorf("draining /readyz = %d %q, want 503 draining", code, body)
	}
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, `"draining":true`) {
		t.Errorf("draining /healthz = %d %q, want 200 with draining:true", code, body)
	}
}

// TestETagNotModified pins the revalidation path: ETag is the cache
// key, and If-None-Match answers 304 with no body — including on a
// cold key, where the run still happens (populating the cache) but no
// bytes travel.
func TestETagNotModified(t *testing.T) {
	srv := mustServer(t, Config{})
	var runs atomic.Int64
	stub(srv, func(context.Context, experiments.Request, experiments.Runtime) ([]byte, error) {
		runs.Add(1)
		return []byte(`{"etag":"test"}`), nil
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/experiments/fig4"

	resp, body := postJSON(t, url, smallBody)
	etag := resp.Header.Get("ETag")
	if etag == "" || etag != `"`+resp.Header.Get("X-Memcond-Key")+`"` {
		t.Fatalf("ETag = %q, want quoted cache key %q", etag, resp.Header.Get("X-Memcond-Key"))
	}

	post := func(inm string) (*http.Response, []byte) {
		t.Helper()
		req, _ := http.NewRequest("POST", url, strings.NewReader(smallBody))
		req.Header.Set("Content-Type", "application/json")
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}

	// Matching tag (exact, list, weak, wildcard): 304, empty body, no run.
	for _, inm := range []string{etag, `"zzz", ` + etag, "W/" + etag, "*"} {
		resp, b := post(inm)
		if resp.StatusCode != http.StatusNotModified || len(b) != 0 {
			t.Errorf("If-None-Match %q = %d with %d body bytes, want 304 empty", inm, resp.StatusCode, len(b))
		}
		if got := resp.Header.Get("X-Memcond-Cache"); got != "hit" {
			t.Errorf("If-None-Match %q tier = %q, want hit", inm, got)
		}
	}
	// Stale tag: full 200 body.
	if resp, b := post(`"0000"`); resp.StatusCode != http.StatusOK || !bytes.Equal(b, body) {
		t.Errorf("stale If-None-Match = %d %q, want 200 with original bytes", resp.StatusCode, b)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("experiment ran %d times across revalidations, want 1", n)
	}

	// Cold key + wildcard: the run happens, the answer is still 304.
	req, _ := http.NewRequest("POST", url, strings.NewReader(`{"seed":3,"scale":0.05,"simtime_ns":200000,"mixes":3}`))
	req.Header.Set("If-None-Match", "*")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Errorf("cold-key If-None-Match = %d, want 304", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Memcond-Cache"); got != "miss" {
		t.Errorf("cold-key 304 tier = %q, want miss", got)
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("cold-key revalidation ran %d times total, want 2", n)
	}
	if n := srv.notModified.Value(); n != 5 {
		t.Errorf("not_modified_total = %d, want 5", n)
	}
}

// TestGzipNegotiation pins zero-copy content encoding: the precomputed
// gzip variant decompresses to exactly the identity bytes, and q=0
// (or absence) keeps the identity form.
func TestGzipNegotiation(t *testing.T) {
	srv := mustServer(t, Config{})
	payload := `{"gzip":"` + strings.Repeat("x", 2048) + `"}`
	stub(srv, func(context.Context, experiments.Request, experiments.Runtime) ([]byte, error) {
		return []byte(payload), nil
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/experiments/fig4"

	post := func(acceptEncoding string) (*http.Response, []byte) {
		t.Helper()
		req, _ := http.NewRequest("POST", url, strings.NewReader(smallBody))
		req.Header.Set("Content-Type", "application/json")
		if acceptEncoding != "" {
			// Setting the header manually disables the transport's
			// transparent decompression: we see the raw wire bytes.
			req.Header.Set("Accept-Encoding", acceptEncoding)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}

	resp, identity := post("identity")
	if enc := resp.Header.Get("Content-Encoding"); enc != "" {
		t.Fatalf("identity request got Content-Encoding %q", enc)
	}
	if string(identity) != payload {
		t.Fatalf("identity body = %q", identity)
	}

	resp, wire := post("gzip")
	if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("gzip request got Content-Encoding %q", enc)
	}
	if resp.Header.Get("Content-Length") != strconv.Itoa(len(wire)) {
		t.Errorf("gzip Content-Length = %q, want %d", resp.Header.Get("Content-Length"), len(wire))
	}
	zr, err := gzip.NewReader(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(decoded, identity) {
		t.Error("gzip variant does not decompress to the identity bytes")
	}

	if resp, b := post("gzip;q=0, identity"); resp.Header.Get("Content-Encoding") != "" || !bytes.Equal(b, identity) {
		t.Errorf("q=0 request served encoding %q", resp.Header.Get("Content-Encoding"))
	}
	if n := srv.gzipServed.Value(); n != 1 {
		t.Errorf("gzip_total = %d, want 1", n)
	}
}

// TestDiskTierRestart pins the tentpole invariant end-to-end: a new
// daemon over the same cache directory serves the prior run's exact
// bytes from disk — no recompute — and promotes the entry to memory.
func TestDiskTierRestart(t *testing.T) {
	dir := t.TempDir()
	srv1 := mustServer(t, Config{CacheDir: dir})
	ts1 := httptest.NewServer(srv1.Handler())
	url1 := ts1.URL + "/v1/experiments/fig4"
	resp, original := postJSON(t, url1, smallBody)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Memcond-Cache") != "miss" {
		t.Fatalf("seed run = %d %s", resp.StatusCode, resp.Header.Get("X-Memcond-Cache"))
	}
	etag := resp.Header.Get("ETag")
	ts1.Close()

	// "Restart": a fresh server over the same directory, with a run
	// function that must never fire.
	srv2 := mustServer(t, Config{CacheDir: dir})
	stub(srv2, func(context.Context, experiments.Request, experiments.Runtime) ([]byte, error) {
		return nil, errors.New("restarted daemon re-ran a persisted experiment")
	})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	url2 := ts2.URL + "/v1/experiments/fig4"

	resp, served := postJSON(t, url2, smallBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted serve = %d: %s", resp.StatusCode, served)
	}
	if got := resp.Header.Get("X-Memcond-Cache"); got != "disk" {
		t.Errorf("restarted tier = %q, want disk", got)
	}
	if !bytes.Equal(served, original) {
		t.Error("disk-served bytes differ from the original run")
	}
	if resp.Header.Get("ETag") != etag {
		t.Errorf("ETag changed across restart: %q vs %q", resp.Header.Get("ETag"), etag)
	}

	// The disk hit promoted the entry: the next request is a memory hit,
	// and a 304 revalidation needs no body either way.
	resp, promoted := postJSON(t, url2, smallBody)
	if got := resp.Header.Get("X-Memcond-Cache"); got != "hit" {
		t.Errorf("post-promotion tier = %q, want hit", got)
	}
	if !bytes.Equal(promoted, original) {
		t.Error("promoted bytes differ from the original run")
	}

	req, _ := http.NewRequest("POST", url2, strings.NewReader(smallBody))
	req.Header.Set("If-None-Match", etag)
	resp304, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp304.Body.Close()
	if resp304.StatusCode != http.StatusNotModified {
		t.Errorf("restart revalidation = %d, want 304", resp304.StatusCode)
	}
}
