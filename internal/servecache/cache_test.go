package servecache

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func key(b byte) Key {
	var k Key
	k[0] = b
	return k
}

func TestDoMissThenHit(t *testing.T) {
	c := NewWithOptions(Options{MaxEntries: 8})
	var calls atomic.Int64
	compute := func(context.Context) ([]byte, error) {
		calls.Add(1)
		return []byte("result"), nil
	}
	e, o, err := c.Do(context.Background(), key(1), []byte("req"), compute)
	if err != nil || o != Miss || string(e.Data) != "result" {
		t.Fatalf("first Do = %+v, %v, %v", e, o, err)
	}
	e, o, err = c.Do(context.Background(), key(1), nil, compute)
	if err != nil || o != Hit || string(e.Data) != "result" {
		t.Fatalf("second Do = %+v, %v, %v", e, o, err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
	le, ok := c.Lookup(key(1))
	if !ok || string(le.Request) != "req" || le != e {
		t.Errorf("Lookup = %+v, %v", le, ok)
	}
	s := c.StatsSnapshot()
	if s.Hits != 1 || s.Misses != 1 || s.Shared != 0 || s.Entries != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.Bytes < int64(len("result")) {
		t.Errorf("stats bytes = %d, want at least the payload", s.Bytes)
	}
}

// TestEntryGzipRoundTrip pins the precomputed wire variant: the gzip
// bytes stored with an entry decompress to exactly its identity bytes.
func TestEntryGzipRoundTrip(t *testing.T) {
	data := bytes.Repeat([]byte(`{"row":[1,2,3]}`+"\n"), 64)
	c := NewWithOptions(Options{MaxEntries: 8})
	_, _, err := c.Do(context.Background(), key(1), nil, func(context.Context) ([]byte, error) {
		return data, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	e, ok := c.Lookup(key(1))
	if !ok {
		t.Fatal("entry missing")
	}
	if e.Gzip == nil {
		t.Fatal("no precomputed gzip variant")
	}
	if len(e.Gzip) >= len(e.Data) {
		t.Errorf("gzip variant (%d bytes) not smaller than identity (%d bytes)", len(e.Gzip), len(e.Data))
	}
	zr, err := gzip.NewReader(bytes.NewReader(e.Gzip))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, data) {
		t.Error("gzip variant does not decompress to the identity bytes")
	}
}

func TestDoError(t *testing.T) {
	c := NewWithOptions(Options{MaxEntries: 8})
	boom := errors.New("boom")
	_, o, err := c.Do(context.Background(), key(1), nil, func(context.Context) ([]byte, error) {
		return nil, boom
	})
	if o != Miss || !errors.Is(err, boom) {
		t.Fatalf("Do = %v, %v", o, err)
	}
	if c.StatsSnapshot().Entries != 0 {
		t.Error("failed computation was cached")
	}
	// The key is recomputable after a failure.
	e, o, err := c.Do(context.Background(), key(1), nil, func(context.Context) ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil || o != Miss || string(e.Data) != "ok" {
		t.Fatalf("retry Do = %+v, %v, %v", e, o, err)
	}
}

// TestSingleflight pins the collapse: N concurrent callers of one key
// run compute exactly once and all see the same bytes.
func TestSingleflight(t *testing.T) {
	c := NewWithOptions(Options{MaxEntries: 8})
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	compute := func(context.Context) ([]byte, error) {
		calls.Add(1)
		close(started)
		<-release
		return []byte("shared-result"), nil
	}

	const n = 8
	var wg sync.WaitGroup
	outcomes := make([]Outcome, n)
	entries := make([]*Entry, n)
	errs := make([]error, n)
	wg.Add(1)
	go func() {
		defer wg.Done()
		entries[0], outcomes[0], errs[0] = c.Do(context.Background(), key(7), nil, compute)
	}()
	<-started // the flight exists before the followers arrive
	for i := 1; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			entries[i], outcomes[i], errs[i] = c.Do(context.Background(), key(7), nil, func(context.Context) ([]byte, error) {
				t.Error("follower's compute invoked")
				return nil, nil
			})
		}()
	}
	time.Sleep(10 * time.Millisecond) // let followers reach wait
	close(release)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
	var miss, shared int
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !bytes.Equal(entries[i].Data, []byte("shared-result")) {
			t.Errorf("caller %d data = %q", i, entries[i].Data)
		}
		switch outcomes[i] {
		case Miss:
			miss++
		case Shared:
			shared++
		default:
			t.Errorf("caller %d outcome = %v", i, outcomes[i])
		}
	}
	if miss != 1 || shared != n-1 {
		t.Errorf("outcomes: %d miss, %d shared; want 1, %d", miss, shared, n-1)
	}
}

// TestAbandonedFlightCancelled pins the refcount contract: when every
// waiter gives up, the compute context is cancelled and nothing is
// cached; a later caller starts a fresh computation.
func TestAbandonedFlightCancelled(t *testing.T) {
	c := NewWithOptions(Options{MaxEntries: 8})
	cancelled := make(chan struct{})
	compute := func(ctx context.Context) ([]byte, error) {
		<-ctx.Done()
		close(cancelled)
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, o, err := c.Do(ctx, key(3), nil, compute)
	if o != Miss || !errors.Is(err, context.Canceled) {
		t.Fatalf("Do = %v, %v", o, err)
	}
	select {
	case <-cancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("compute context never cancelled after the last waiter left")
	}
	if c.StatsSnapshot().Entries != 0 {
		t.Error("abandoned flight was cached")
	}
	e, o, err := c.Do(context.Background(), key(3), nil, func(context.Context) ([]byte, error) {
		return []byte("fresh"), nil
	})
	if err != nil || o != Miss || string(e.Data) != "fresh" {
		t.Fatalf("post-abandon Do = %+v, %v, %v", e, o, err)
	}
}

// TestSurvivingWaiterKeepsFlight pins that one waiter cancelling does
// not kill the run for the waiter that stays.
func TestSurvivingWaiterKeepsFlight(t *testing.T) {
	c := NewWithOptions(Options{MaxEntries: 8})
	started := make(chan struct{})
	release := make(chan struct{})
	compute := func(ctx context.Context) ([]byte, error) {
		close(started)
		select {
		case <-release:
			return []byte("kept"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	quitCtx, quit := context.WithCancel(context.Background())
	quitErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(quitCtx, key(9), nil, compute)
		quitErr <- err
	}()
	<-started

	stayData := make(chan []byte, 1)
	go func() {
		e, _, err := c.Do(context.Background(), key(9), nil, compute)
		if err != nil {
			t.Errorf("surviving waiter: %v", err)
			stayData <- nil
			return
		}
		stayData <- e.Data
	}()
	time.Sleep(10 * time.Millisecond) // let the second caller join the flight
	quit()
	if err := <-quitErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("quitting waiter err = %v", err)
	}
	close(release)
	if data := <-stayData; string(data) != "kept" {
		t.Errorf("surviving waiter data = %q", data)
	}
	if _, ok := c.Lookup(key(9)); !ok {
		t.Error("completed flight not cached")
	}
}

func TestLRUEviction(t *testing.T) {
	c := NewWithOptions(Options{MaxEntries: 2})
	c.Put(key(1), nil, []byte("a"))
	c.Put(key(2), nil, []byte("b"))
	if _, ok := c.Lookup(key(1)); !ok { // refresh 1; 2 becomes oldest
		t.Fatal("entry 1 missing")
	}
	c.Put(key(3), nil, []byte("c"))
	if _, ok := c.Lookup(key(2)); ok {
		t.Error("least-recently-used entry 2 not evicted")
	}
	if _, ok := c.Lookup(key(1)); !ok {
		t.Error("recently-used entry 1 evicted")
	}
	if _, ok := c.Lookup(key(3)); !ok {
		t.Error("new entry 3 missing")
	}
	if s := c.StatsSnapshot(); s.Evictions != 1 || s.Entries != 2 {
		t.Errorf("stats = %+v", s)
	}
}

// TestByteBudgetEviction pins the byte bound: entries are evicted
// oldest-first once the summed wire sizes exceed the budget, but the
// newest entry always survives even when it alone is over budget.
func TestByteBudgetEviction(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 4096)
	perEntry := newEntry(key(0), nil, payload).size()
	c := NewWithOptions(Options{MaxBytes: 3 * perEntry})
	for i := 1; i <= 5; i++ {
		c.Put(key(byte(i)), nil, payload)
	}
	if got := c.StatsSnapshot().Entries; got != 3 {
		t.Errorf("entries after budget eviction = %d, want 3", got)
	}
	for i := 1; i <= 2; i++ {
		if _, ok := c.Lookup(key(byte(i))); ok {
			t.Errorf("oldest entry %d survived the byte budget", i)
		}
	}
	for i := 3; i <= 5; i++ {
		if _, ok := c.Lookup(key(byte(i))); !ok {
			t.Errorf("recent entry %d evicted", i)
		}
	}
	if s := c.StatsSnapshot(); s.Evictions != 2 || s.Bytes != 3*perEntry {
		t.Errorf("stats = %+v, want 2 evictions and %d bytes", s, 3*perEntry)
	}

	// A budget smaller than one entry still holds the newest entry.
	tiny := NewWithOptions(Options{MaxBytes: 1})
	tiny.Put(key(1), nil, payload)
	tiny.Put(key(2), nil, payload)
	if _, ok := tiny.Lookup(key(2)); !ok || tiny.StatsSnapshot().Entries != 1 {
		t.Errorf("tiny budget: len=%d", tiny.StatsSnapshot().Entries)
	}
}

// TestEntryBudgetIsWholeTier pins that MaxEntries and MaxBytes bound
// the whole memory tier: two keys whose first words agree stay resident
// under a budget of four, and sixteen keys spread over the key space
// leave exactly four.
func TestEntryBudgetIsWholeTier(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 4096)
	perEntry := newEntry(key(0), nil, payload).size()
	spread := func(i int) Key {
		var k Key
		k[3] = byte(i)
		return k
	}
	for name, opts := range map[string]Options{
		"entries": {MaxEntries: 4},
		"bytes":   {MaxBytes: 4 * perEntry},
	} {
		t.Run(name, func(t *testing.T) {
			c := NewWithOptions(opts)
			c.Put(key(0x00), nil, payload)
			c.Put(key(0x10), nil, payload)
			if s := c.StatsSnapshot(); c.StatsSnapshot().Entries != 2 || s.Evictions != 0 {
				t.Errorf("two keys under a budget of four: len=%d, stats=%+v", c.StatsSnapshot().Entries, s)
			}

			c = NewWithOptions(opts)
			for i := 0; i < 16; i++ {
				c.Put(spread(i), nil, payload)
			}
			if s := c.StatsSnapshot(); c.StatsSnapshot().Entries != 4 || s.Evictions != 12 {
				t.Errorf("sixteen keys under a budget of four: len=%d, stats=%+v", c.StatsSnapshot().Entries, s)
			}
			for i := 12; i < 16; i++ {
				if _, ok := c.Lookup(spread(i)); !ok {
					t.Errorf("recent key %d evicted", i)
				}
			}
		})
	}
}

func TestPutReplaces(t *testing.T) {
	c := NewWithOptions(Options{MaxEntries: 4})
	c.Put(key(1), []byte("r1"), []byte("old"))
	c.Put(key(1), []byte("r1"), []byte("new"))
	if c.StatsSnapshot().Entries != 1 {
		t.Fatalf("len = %d", c.StatsSnapshot().Entries)
	}
	e, _ := c.Lookup(key(1))
	if string(e.Data) != "new" {
		t.Errorf("data = %q", e.Data)
	}
}

// TestSharedEntryConcurrentReaders: hits and lookups hand every caller
// the resident entry itself, so readers on several goroutines share it
// while Put replaces the key; under -race this pins that nothing writes
// an entry once it is built.
func TestSharedEntryConcurrentReaders(t *testing.T) {
	c := NewWithOptions(Options{MaxEntries: 4})
	c.Put(key(1), []byte("r1"), []byte("old"))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			c.Put(key(1), []byte("r1"), []byte([]string{"old", "new"}[i%2]))
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				var e *Entry
				switch i % 3 {
				case 0:
					e, _, _ = c.Do(context.Background(), key(1), nil, func(context.Context) ([]byte, error) {
						return []byte("old"), nil
					})
				case 1:
					e, _, _ = c.Probe(key(1))
				default:
					e, _ = c.Lookup(key(1))
				}
				if d := string(e.Data); d != "old" && d != "new" {
					t.Errorf("entry data = %q", d)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s := c.StatsSnapshot(); s.Hits == 0 {
		t.Errorf("no hits counted: %+v", s)
	}
}

func TestKeyAndOutcomeStrings(t *testing.T) {
	k := key(0xAB)
	if got := k.String(); len(got) != 64 || got[:2] != "ab" {
		t.Errorf("key hex = %q", got)
	}
	for o, want := range map[Outcome]string{Hit: "hit", Miss: "miss", Shared: "shared", Disk: "disk", Outcome(9): "unknown"} {
		if o.String() != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", o, o.String(), want)
		}
	}
}

func TestUnboundedCache(t *testing.T) {
	c := NewWithOptions(Options{})
	for i := 0; i < 100; i++ {
		c.Put(key(byte(i)), nil, []byte(fmt.Sprintf("v%d", i)))
	}
	if c.StatsSnapshot().Entries != 100 {
		t.Errorf("len = %d, want 100", c.StatsSnapshot().Entries)
	}
	if s := c.StatsSnapshot(); s.Evictions != 0 {
		t.Errorf("evictions = %d", s.Evictions)
	}
}

// diskCache builds a cache backed by a store in a test directory.
func diskCache(t *testing.T, dir string, opts Options) *Cache {
	t.Helper()
	st, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Scan(); err != nil {
		t.Fatal(err)
	}
	opts.Store = st
	return NewWithOptions(opts)
}

// TestDiskWriteThroughAndRestart pins the persistence contract: a
// computed result is written through to disk, and a fresh cache over
// the same directory (a restarted daemon) serves it as a Disk outcome
// with byte-identical data and no recompute; the next request is a
// memory Hit (lazy promotion).
func TestDiskWriteThroughAndRestart(t *testing.T) {
	dir := t.TempDir()
	c1 := diskCache(t, dir, Options{})
	e, o, err := c1.Do(context.Background(), key(1), []byte("req-1"), func(context.Context) ([]byte, error) {
		return []byte("computed-once"), nil
	})
	if err != nil || o != Miss {
		t.Fatalf("Do = %v, %v", o, err)
	}
	if c1.store.StatsSnapshot().Entries != 1 {
		t.Fatalf("write-through missing: disk has %d entries", c1.store.StatsSnapshot().Entries)
	}

	// "Restart": new cache, same directory.
	c2 := diskCache(t, dir, Options{})
	e2, o2, err := c2.Do(context.Background(), key(1), nil, func(context.Context) ([]byte, error) {
		t.Error("restarted cache re-ran a persisted result")
		return nil, nil
	})
	if err != nil || o2 != Disk {
		t.Fatalf("post-restart Do = %v, %v", o2, err)
	}
	if !bytes.Equal(e2.Data, e.Data) || string(e2.Request) != "req-1" {
		t.Errorf("post-restart entry = %q req %q", e2.Data, e2.Request)
	}
	// Promoted: now a memory hit.
	_, o3, err := c2.Do(context.Background(), key(1), nil, nil)
	if err != nil || o3 != Hit {
		t.Fatalf("post-promotion Do = %v, %v", o3, err)
	}
	s := c2.StatsSnapshot()
	if s.DiskHits != 1 || s.Hits != 1 || s.Misses != 0 {
		t.Errorf("stats = %+v", s)
	}
}

// TestDiskCorruptEntryIsMissAndHeals pins the integrity contract end
// to end: a corrupted on-disk entry is never served — the cache
// recomputes, and the recompute heals the file.
func TestDiskCorruptEntryIsMissAndHeals(t *testing.T) {
	dir := t.TempDir()
	c1 := diskCache(t, dir, Options{})
	if _, _, err := c1.Do(context.Background(), key(1), nil, func(context.Context) ([]byte, error) {
		return []byte("good-bytes"), nil
	}); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, c1.store.path(key(1)), 100)

	c2 := diskCache(t, dir, Options{})
	var ran atomic.Int64
	e, o, err := c2.Do(context.Background(), key(1), nil, func(context.Context) ([]byte, error) {
		ran.Add(1)
		return []byte("good-bytes"), nil
	})
	if err != nil || o != Miss || ran.Load() != 1 {
		t.Fatalf("Do over corrupt entry = %v, %v, ran %d", o, err, ran.Load())
	}
	if string(e.Data) != "good-bytes" {
		t.Errorf("served %q", e.Data)
	}
	if st := c2.store.StatsSnapshot(); st.Corrupt != 1 {
		t.Errorf("store stats = %+v, want 1 corrupt drop", st)
	}
	// Healed: a third cache serves it from disk again.
	c3 := diskCache(t, dir, Options{})
	_, o, err = c3.Do(context.Background(), key(1), nil, nil)
	if err != nil || o != Disk {
		t.Fatalf("post-heal Do = %v, %v", o, err)
	}
}

// TestProbe pins the 304 fast path's tier resolution.
func TestProbe(t *testing.T) {
	dir := t.TempDir()
	c := diskCache(t, dir, Options{})
	if _, _, ok := c.Probe(key(1)); ok {
		t.Fatal("probe found a nonexistent key")
	}
	c.Put(key(1), nil, []byte("v"))
	if e, o, ok := c.Probe(key(1)); !ok || o != Hit || string(e.Data) != "v" {
		t.Fatalf("memory probe = %v %v %v", e, o, ok)
	}
	// A fresh cache sees it only on disk.
	c2 := diskCache(t, dir, Options{})
	if e, o, ok := c2.Probe(key(1)); !ok || o != Disk || string(e.Data) != "v" {
		t.Fatalf("disk probe = %v %v %v", e, o, ok)
	}
	if _, o, ok := c2.Probe(key(1)); !ok || o != Hit {
		t.Fatalf("promoted probe outcome = %v %v", o, ok)
	}
}

// TestDiskConcurrentPromotion pins that concurrent Do callers racing
// on a disk-resident key all receive identical bytes and none of them
// recomputes.
func TestDiskConcurrentPromotion(t *testing.T) {
	dir := t.TempDir()
	c1 := diskCache(t, dir, Options{})
	if _, _, err := c1.Do(context.Background(), key(5), nil, func(context.Context) ([]byte, error) {
		return []byte("persisted"), nil
	}); err != nil {
		t.Fatal(err)
	}
	c2 := diskCache(t, dir, Options{})
	const n = 16
	var wg sync.WaitGroup
	datas := make([][]byte, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, _, err := c2.Do(context.Background(), key(5), nil, func(context.Context) ([]byte, error) {
				t.Error("recompute despite disk entry")
				return nil, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			datas[i] = e.Data
		}()
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(datas[i], datas[0]) {
			t.Fatalf("caller %d saw different bytes", i)
		}
	}
}
