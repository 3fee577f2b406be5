// Command memcond serves the MEMCON experiment registry over HTTP.
//
// It exposes the same experiments as memconsim, but as a daemon
// with a content-addressed result cache: POST /v1/experiments/{id}
// with a provenance-options JSON body runs the experiment on a bounded
// worker pool and returns the canonical report; an identical request —
// same id, seed, scale, simulated time, mixes, fleet size and report
// version — is answered from the cache, byte-identical, without
// re-running. Concurrent identical requests collapse onto a single
// run (singleflight). The determinism contract the CLI pins with its
// golden files is what makes this sound: a cache hit IS the answer.
//
// The cache is two-tier: an in-memory LRU in front of an
// optional content-addressed disk store (-cache-dir). Every miss is
// written through to disk; a restarted daemon warm-boots by scanning
// the directory and serves its prior corpus without re-running a
// single experiment (X-Memcond-Cache: disk). Entries carry
// precomputed wire bytes — canonical JSON and its gzip form — so a
// warm hit does no encoding or compression, and ETag = cache key
// lets revalidating clients get 304 Not Modified with no body at all.
//
// Endpoints:
//
//	GET  /v1/experiments       catalogue of ids and titles
//	POST /v1/experiments/{id}  run (or fetch) one experiment
//	POST /v1/revalidate        re-run a cached entry, diff against it
//	GET  /metrics              Prometheus text exposition
//	GET  /healthz              liveness + cache stats
//	GET  /readyz               routability: 503 while starting/draining
//
// With Accept: text/event-stream (or ?progress=sse) the experiment
// endpoint streams progress snapshots of the run's engine event
// counters before the result. SIGTERM drains gracefully: /readyz
// flips to 503, in-flight requests finish, new connections are
// refused.
//
// Usage:
//
//	memcond [-addr host:port] [-addr-file path] [-workers n] [-queue n]
//	        [-timeout d] [-cache n] [-cache-mem bytes]
//	        [-cache-dir path] [-cache-disk bytes]
//	        [-report-version v] [-max-scale f]
//
// -addr-file writes the bound address (useful with -addr :0) so
// scripts can find the server without racing the log output.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		addrFile  = flag.String("addr-file", "", "write the bound address to this file once listening")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "experiments running concurrently")
		queue     = flag.Int("queue", 64, "requests allowed to wait for a worker beyond those running")
		timeout   = flag.Duration("timeout", 2*time.Minute, "per-request run budget before 504")
		cacheN    = flag.Int("cache", 1024, "memory cache entry budget (LRU); the disk tier is bounded by -cache-disk")
		cacheMem  = flag.Int64("cache-mem", 0, "memory cache byte budget, 0 = unlimited")
		cacheDir  = flag.String("cache-dir", "", "persist results to this directory (restart-surviving cache)")
		cacheDisk = flag.Int64("cache-disk", 0, "disk cache byte budget, 0 = unlimited")
		version   = flag.String("report-version", "", "version stamped into reports when the client sends none")
		maxScale  = flag.Float64("max-scale", 0, "largest scale a request may ask for (0 = no cap)")
	)
	flag.Parse()

	srv, err := NewServer(Config{
		Workers:        *workers,
		Queue:          *queue,
		Timeout:        *timeout,
		CacheEntries:   *cacheN,
		CacheMemBytes:  *cacheMem,
		CacheDir:       *cacheDir,
		CacheDiskBytes: *cacheDisk,
		Version:        *version,
		MaxScale:       *maxScale,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "memcond: %v\n", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "memcond: %v\n", err)
		return 1
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "memcond: writing -addr-file: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(os.Stderr, "memcond: listening on %s (%d workers, queue %d, cache %d entries)\n",
		ln.Addr(), srv.cfg.Workers, srv.cfg.Queue, srv.cfg.CacheEntries)

	// Warm-boot in the background: the listener is up (so health
	// probes answer) but /readyz stays 503 until the persisted corpus
	// is indexed and every prior result is servable without a re-run.
	go func() {
		n, err := srv.WarmBoot()
		if err != nil {
			fmt.Fprintf(os.Stderr, "memcond: warm boot: %v\n", err)
			return
		}
		if srv.cfg.CacheDir != "" {
			fmt.Fprintf(os.Stderr, "memcond: warm boot indexed %d persisted entries from %s\n", n, srv.cfg.CacheDir)
		}
	}()

	httpSrv := &http.Server{Handler: srv.Handler()}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s := <-sig
		fmt.Fprintf(os.Stderr, "memcond: %s received, draining\n", s)
		srv.SetDraining()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "memcond: drain: %v\n", err)
			httpSrv.Close()
		}
	}()

	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "memcond: %v\n", err)
		return 1
	}
	<-done
	fmt.Fprintln(os.Stderr, "memcond: drained cleanly")
	return 0
}
