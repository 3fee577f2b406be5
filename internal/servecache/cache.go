// Package servecache is the content-addressed result cache behind the
// experiment-serving daemon (cmd/memcond). Entries are keyed by the
// SHA-256 cache key of a canonical experiments.Request and hold the
// byte-exact wire forms of the report that request produced — the
// canonical JSON plus a precomputed gzip variant — so a warm hit is
// served without encoding, compression, or allocation. The repo's
// determinism contract (byte-identical reports for identical inputs)
// is what makes a content-addressed cache sound here: a hit IS the
// answer, not an approximation of it.
//
// The cache is two tiers. The memory tier is one LRU index and one
// singleflight table under one mutex; its entry and byte budgets bound
// the whole tier. The optional disk tier (Store) persists every
// computed result (write-through on miss) and survives daemon
// restarts: a memory miss
// consults the disk before running anything, and a disk hit is lazily
// promoted back into memory. Both tiers keep the same LRU index (lru)
// and evict by byte budget; every call that indexes a result leaves
// its tier within budget.
//
// Concurrent identical requests collapse into one computation
// (singleflight): the first caller starts the run, later callers with
// the same key wait on it, and every waiter receives the same bytes.
// Flights are reference-counted against their waiters — when the last
// interested caller cancels, the flight's context is cancelled too, so
// an abandoned run stops burning worker-pool slots mid-sweep instead
// of completing for nobody.
package servecache

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/hex"
	"sync"
)

// Key is a 32-byte content address (experiments.Request.CacheKey).
type Key [32]byte

// String renders the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Outcome classifies how Do satisfied a caller.
type Outcome uint8

const (
	// Hit: the bytes came straight from the memory tier.
	Hit Outcome = iota
	// Miss: this caller started the computation.
	Miss
	// Shared: the caller joined another caller's in-flight computation.
	Shared
	// Disk: the bytes came from the disk tier (and were promoted to
	// memory) without running anything.
	Disk
)

var outcomeNames = [...]string{"hit", "miss", "shared", "disk"}

// String returns the outcome's stable wire name (used in the
// X-Memcond-Cache response header and the memload summary).
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "unknown"
}

// Entry is one cached result in wire form. It never changes once
// built: every caller shares it and must not modify it.
type Entry struct {
	// Key is the entry's content address.
	Key Key
	// Request is the canonical JSON of the request that produced the
	// data (kept so revalidation can re-run an entry without the
	// original client).
	Request []byte
	// Data is the canonical JSON report document — the identity wire
	// form.
	Data []byte
	// Gzip is the precomputed gzip form of Data, built once when the
	// entry is stored so Accept-Encoding negotiation costs nothing at
	// serve time. Nil when compression failed (serve Data instead).
	Gzip []byte
}

// entryOverhead approximates the bookkeeping bytes an entry costs
// beyond its payload slices (struct, map slot, list element).
const entryOverhead = 160

func (e *Entry) size() int64 {
	return int64(len(e.Request)+len(e.Data)+len(e.Gzip)) + entryOverhead
}

// newEntry builds the wire forms for one result, compressing Data once.
func newEntry(k Key, request, data []byte) *Entry {
	e := &Entry{Key: k, Request: request, Data: data}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err == nil && zw.Close() == nil {
		e.Gzip = buf.Bytes()
	}
	return e
}

// Stats are cumulative cache counters.
type Stats struct {
	// Hits, Misses, Shared count Do outcomes against the memory tier;
	// DiskHits counts results served from the disk tier.
	Hits, Misses, Shared, DiskHits int64
	// Evictions counts memory-tier entries dropped by a budget.
	Evictions int64
	// Entries and Bytes describe the memory tier's current contents.
	Entries int
	Bytes   int64
}

// flight is one in-progress computation. refs counts the callers still
// waiting on it; when refs drops to zero the flight's context is
// cancelled and the flight is detached from the cache so a late caller
// starts fresh instead of inheriting a doomed run.
type flight struct {
	done   chan struct{} // closed when entry/err are set
	cancel context.CancelFunc
	refs   int
	entry  *Entry
	err    error
}

// Options configures a cache.
type Options struct {
	// MaxEntries bounds the memory tier's entry count; values below 1
	// select unbounded.
	MaxEntries int
	// MaxBytes bounds the memory tier's payload bytes; values below 1
	// select unbounded.
	MaxBytes int64
	// Store is the optional disk tier: consulted between a memory miss
	// and a run, written through on every computed or stored result.
	Store *Store
}

// Cache is a bounded, content-addressed result store with singleflight
// computation. The zero value is not usable; construct with
// NewWithOptions.
type Cache struct {
	mu       sync.Mutex
	mem      lru[*Entry]
	inflight map[Key]*flight
	stats    Stats
	store    *Store
}

// NewWithOptions builds a cache from the full option set.
func NewWithOptions(opts Options) *Cache {
	c := &Cache{inflight: make(map[Key]*flight), store: opts.Store}
	c.mem.maxEntries, c.mem.maxBytes = opts.MaxEntries, opts.MaxBytes
	return c
}

// Lookup returns the full cached entry for k without counting a hit —
// the revalidation path uses it to fetch the saved bytes and request.
// A memory miss falls through to the disk tier (promoting on success),
// so a restarted daemon can revalidate its prior corpus. An entry never
// changes once built, so the resident one is returned as is.
func (c *Cache) Lookup(k Key) (*Entry, bool) {
	c.mu.Lock()
	e, ok := c.mem.get(k)
	c.mu.Unlock()
	if ok {
		return e, true
	}
	return c.fromDisk(k)
}

// Probe resolves k against both tiers without ever computing: a memory
// hit returns (entry, Hit), a disk hit promotes and returns
// (entry, Disk), anything else reports false. The serving 304 fast
// path uses it.
func (c *Cache) Probe(k Key) (*Entry, Outcome, bool) {
	c.mu.Lock()
	e, _ := c.hitLocked(k, false)
	c.mu.Unlock()
	if e != nil {
		return e, Hit, true
	}
	e, ok := c.diskHit(k)
	return e, Disk, ok
}

// hitLocked answers k from the memory tier, counting a hit. With join
// set, a key that is not resident but in flight joins that flight
// instead, counted as shared. It returns nil for both when neither
// holds. Callers hold c.mu.
func (c *Cache) hitLocked(k Key, join bool) (*Entry, *flight) {
	if e, ok := c.mem.get(k); ok {
		c.stats.Hits++
		return e, nil
	}
	if f, ok := c.inflight[k]; join && ok {
		f.refs++
		c.stats.Shared++
		return nil, f
	}
	return nil, nil
}

// diskHit answers k from the disk tier, promoting it, and counts a
// disk hit.
func (c *Cache) diskHit(k Key) (*Entry, bool) {
	e, ok := c.fromDisk(k)
	if ok {
		c.mu.Lock()
		c.stats.DiskHits++
		c.mu.Unlock()
	}
	return e, ok
}

// fromDisk reads k from the disk tier and promotes it into memory.
// When a concurrent caller promoted (or a flight stored) the key
// first, that resident entry wins — both callers see the same bytes —
// and is marked most recently used.
func (c *Cache) fromDisk(k Key) (*Entry, bool) {
	if c.store == nil {
		return nil, false
	}
	request, data, ok := c.store.Get(k)
	if !ok {
		return nil, false
	}
	e := newEntry(k, request, data)
	c.mu.Lock()
	defer c.mu.Unlock()
	if resident, ok := c.mem.get(k); ok {
		return resident, true
	}
	c.installLocked(e)
	return e, true
}

// Put stores (or replaces) the entry for k in memory and, when a disk
// tier is attached, writes it through. Revalidation uses it to refresh
// a drifted entry; tests use it to inject drift.
func (c *Cache) Put(k Key, request, data []byte) {
	e := newEntry(k, request, data)
	c.mu.Lock()
	c.installLocked(e)
	c.mu.Unlock()
	if c.store != nil {
		c.store.Put(k, request, data)
	}
}

// installLocked puts e into the memory tier, replacing any entry under
// its key, and counts the entries the budgets evict. Callers hold c.mu.
func (c *Cache) installLocked(e *Entry) {
	c.stats.Evictions += int64(len(c.mem.put(e.Key, e, e.size())))
}

// StatsSnapshot returns the cumulative counters and the memory tier's
// current contents.
func (c *Cache) StatsSnapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.mem.order.Len()
	s.Bytes = c.mem.bytes
	return s
}

// Do returns the entry for k, computing it at most once across
// concurrent callers. The resolution order is: memory hit, join an
// in-flight run, disk hit (promoted to memory), fresh run. On a miss
// it runs compute in its own goroutine under a context that stays
// alive while ANY caller still waits on the flight; the caller's own
// ctx only governs how long this caller waits. A successful
// computation is stored in memory and written through to the disk tier
// before anyone is woken, so a subsequent Do is a Hit even across a
// restart. A failed computation is not cached.
//
// request is the canonical request JSON stored alongside the data
// (used for revalidation); only the caller that starts the flight
// needs to supply it.
func (c *Cache) Do(ctx context.Context, k Key, request []byte, compute func(context.Context) ([]byte, error)) (*Entry, Outcome, error) {
	c.mu.Lock()
	e, f := c.hitLocked(k, true)
	if e == nil && f == nil {
		// Memory missed and nothing is in flight: the disk tier may
		// already hold the answer (prior run, prior process). The read
		// happens outside the lock; concurrent callers may both land
		// here and both be served from disk — promotion is idempotent
		// and nothing re-runs.
		c.mu.Unlock()
		if e, ok := c.diskHit(k); ok {
			return e, Disk, nil
		}
		c.mu.Lock()
		// Re-check: the disk probe ran unlocked, so another caller may
		// have promoted the entry or started a flight in the meantime.
		e, f = c.hitLocked(k, true)
	}
	if e != nil || f != nil {
		c.mu.Unlock()
		if e != nil {
			return e, Hit, nil
		}
		return c.wait(ctx, k, f, Shared)
	}
	fctx, cancel := context.WithCancel(context.Background())
	f = &flight{done: make(chan struct{}), cancel: cancel, refs: 1}
	c.inflight[k] = f
	c.stats.Misses++
	c.mu.Unlock()

	go func() {
		data, err := compute(fctx)
		var e *Entry
		if err == nil {
			e = newEntry(k, request, data)
		}
		c.mu.Lock()
		f.entry, f.err = e, err
		if c.inflight[k] == f {
			delete(c.inflight, k)
			if err == nil {
				// A revalidation or promotion that raced us in is
				// replaced, so the flight's waiters and future hits
				// agree.
				c.installLocked(e)
			}
		}
		c.mu.Unlock()
		if err == nil && c.store != nil {
			c.store.Put(k, request, data) // write-through; restart serves this
		}
		cancel()
		close(f.done)
	}()
	return c.wait(ctx, k, f, Miss)
}

// wait blocks until the flight completes or the caller's context is
// done. A caller that gives up drops its reference; the last reference
// out cancels the flight and detaches it so new callers start fresh.
func (c *Cache) wait(ctx context.Context, k Key, f *flight, o Outcome) (*Entry, Outcome, error) {
	// Prefer a completed flight over a racing cancellation: if the
	// result is already there, return it.
	select {
	case <-f.done:
		return f.entry, o, f.err
	default:
	}
	select {
	case <-f.done:
		return f.entry, o, f.err
	case <-ctx.Done():
		c.mu.Lock()
		f.refs--
		abandon := f.refs == 0
		if abandon && c.inflight[k] == f {
			delete(c.inflight, k)
		}
		c.mu.Unlock()
		if abandon {
			f.cancel()
		}
		return nil, o, ctx.Err()
	}
}
