package servecache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// corruptFile flips one bit of the file at pos (clamped into range).
func corruptFile(t *testing.T, path string, pos int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[pos%len(b)] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestStorePutGetRoundTrip(t *testing.T) {
	st, err := OpenStore(filepath.Join(t.TempDir(), "cache"), 0)
	if err != nil {
		t.Fatal(err)
	}
	req, data := []byte(`{"experiment":"fig4"}`), []byte(`{"report":1}`)
	if err := st.Put(key(1), req, data); err != nil {
		t.Fatal(err)
	}
	gotReq, gotData, ok := st.Get(key(1))
	if !ok || !bytes.Equal(gotReq, req) || !bytes.Equal(gotData, data) {
		t.Fatalf("Get = %q %q %v", gotReq, gotData, ok)
	}
	if _, _, ok := st.Get(key(2)); ok {
		t.Error("Get found a never-written key")
	}
	s := st.StatsSnapshot()
	if s.Hits != 1 || s.Misses != 1 || s.Writes != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.Bytes != storeHeaderSize+int64(len(req)+len(data)) {
		t.Errorf("bytes = %d", s.Bytes)
	}
	// Empty request and data are legal entries.
	if err := st.Put(key(3), nil, nil); err != nil {
		t.Fatal(err)
	}
	if gotReq, gotData, ok := st.Get(key(3)); !ok || len(gotReq) != 0 || len(gotData) != 0 {
		t.Errorf("empty entry Get = %q %q %v", gotReq, gotData, ok)
	}
}

// TestStoreCorruption drives every tamper class through the decoder:
// all of them must read as a miss with the file deleted, and a
// subsequent Put must heal the key.
func TestStoreCorruption(t *testing.T) {
	req, data := []byte("request-json"), []byte("data-json-payload")
	cases := []struct {
		name   string
		tamper func(b []byte) []byte
	}{
		{"truncated header", func(b []byte) []byte { return b[:storeHeaderSize/2] }},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-3] }},
		{"empty file", func(b []byte) []byte { return nil }},
		{"appended garbage", func(b []byte) []byte { return append(b, 'x') }},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"future version", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:8], storeVersion+1); return b }},
		{"wrong key", func(b []byte) []byte { b[8] ^= 1; return b }},
		{"tampered hash", func(b []byte) []byte { b[40] ^= 1; return b }},
		{"tampered request length", func(b []byte) []byte { b[72] ^= 1; return b }},
		{"tampered data length", func(b []byte) []byte { b[76] ^= 1; return b }},
		{"request bit flip", func(b []byte) []byte { b[storeHeaderSize] ^= 0x10; return b }},
		{"data bit flip", func(b []byte) []byte { b[len(b)-1] ^= 0x10; return b }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := OpenStore(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Put(key(9), req, data); err != nil {
				t.Fatal(err)
			}
			path := st.path(key(9))
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.tamper(append([]byte(nil), b...)), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, ok := st.Get(key(9)); ok {
				t.Fatal("corrupt entry was served")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("corrupt entry file not deleted")
			}
			if s := st.StatsSnapshot(); s.Corrupt != 1 || s.Entries != 0 {
				t.Errorf("stats = %+v", s)
			}
			// Heal: re-put and read back.
			if err := st.Put(key(9), req, data); err != nil {
				t.Fatal(err)
			}
			if _, gotData, ok := st.Get(key(9)); !ok || !bytes.Equal(gotData, data) {
				t.Error("healed entry not served")
			}
		})
	}
}

// TestStoreScanWarmBoot pins the restart path: a fresh Store over an
// existing directory indexes the prior corpus (oldest first), removes
// leftover temp files, and serves every entry.
func TestStoreScanWarmBoot(t *testing.T) {
	dir := t.TempDir()
	st1, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := st1.Put(key(byte(i)), nil, bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	// Leftovers and foreign files a scan must skip.
	if err := os.WriteFile(filepath.Join(dir, ".tmp-123"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "not-a-key"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	n, err := st2.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 || st2.StatsSnapshot().Entries != 5 {
		t.Fatalf("scan indexed %d entries, Len=%d, want 5", n, st2.StatsSnapshot().Entries)
	}
	if _, err := os.Stat(filepath.Join(dir, ".tmp-123")); !os.IsNotExist(err) {
		t.Error("scan left the temp file behind")
	}
	for i := 1; i <= 5; i++ {
		if _, data, ok := st2.Get(key(byte(i))); !ok || len(data) != 100 {
			t.Errorf("entry %d not served after warm boot", i)
		}
	}
	// Scanning again is idempotent.
	if n, _ := st2.Scan(); n != 0 {
		t.Errorf("re-scan indexed %d new entries", n)
	}
}

// TestStoreByteBudgetEviction pins the disk budget: oldest-accessed
// entries and their files go first, the newest always survives.
func TestStoreByteBudgetEviction(t *testing.T) {
	payload := bytes.Repeat([]byte("p"), 1000)
	perEntry := int64(storeHeaderSize + len(payload))
	st, err := OpenStore(t.TempDir(), 3*perEntry)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := st.Put(key(byte(i)), nil, payload); err != nil {
			t.Fatal(err)
		}
	}
	if st.StatsSnapshot().Entries != 3 || st.StatsSnapshot().Bytes != 3*perEntry {
		t.Fatalf("len=%d bytes=%d, want 3 entries / %d bytes", st.StatsSnapshot().Entries, st.StatsSnapshot().Bytes, 3*perEntry)
	}
	for i := 1; i <= 2; i++ {
		if _, err := os.Stat(st.path(key(byte(i)))); !os.IsNotExist(err) {
			t.Errorf("evicted entry %d still on disk", i)
		}
	}
	for i := 3; i <= 5; i++ {
		if _, _, ok := st.Get(key(byte(i))); !ok {
			t.Errorf("recent entry %d missing", i)
		}
	}
	if s := st.StatsSnapshot(); s.Evictions != 2 {
		t.Errorf("stats = %+v", s)
	}
	// A single over-budget entry still sticks.
	tiny, err := OpenStore(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tiny.Put(key(1), nil, payload)
	tiny.Put(key(2), nil, payload)
	if _, _, ok := tiny.Get(key(2)); !ok || tiny.StatsSnapshot().Entries != 1 {
		t.Errorf("tiny budget: len=%d", tiny.StatsSnapshot().Entries)
	}
}

// TestStoreScanSeedsAccessOrder pins that warm-boot eviction order
// follows file modification times: after a scan with a budget, the
// oldest files are the ones dropped.
func TestStoreScanSeedsAccessOrder(t *testing.T) {
	dir := t.TempDir()
	st1, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("q"), 500)
	now := time.Now()
	for i := 1; i <= 4; i++ {
		if err := st1.Put(key(byte(i)), nil, payload); err != nil {
			t.Fatal(err)
		}
		// Spread mtimes so the scan sees a stable order even on
		// coarse-grained filesystems.
		older := now.Add(time.Duration(i-4) * time.Hour)
		if err := os.Chtimes(st1.path(key(byte(i))), older, older); err != nil {
			t.Fatal(err)
		}
	}
	perEntry := int64(storeHeaderSize + len(payload))
	st2, err := OpenStore(dir, 2*perEntry)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Scan(); err != nil {
		t.Fatal(err)
	}
	if st2.StatsSnapshot().Entries != 2 {
		t.Fatalf("len = %d, want 2", st2.StatsSnapshot().Entries)
	}
	for i := 1; i <= 2; i++ {
		if _, _, ok := st2.Get(key(byte(i))); ok {
			t.Errorf("oldest entry %d survived the scan budget", i)
		}
	}
	for i := 3; i <= 4; i++ {
		if _, _, ok := st2.Get(key(byte(i))); !ok {
			t.Errorf("newest entry %d evicted by the scan budget", i)
		}
	}
}

// FuzzDiskStore is the integrity fuzzer the serving tier's safety
// rests on: arbitrary truncation, bit flips and header tampering of an
// on-disk entry must always read back as a miss (with the bad file
// deleted and the key healable by a fresh Put) and never as served
// corrupt bytes. It also pins the encoding as a fixed point:
// re-encoding a decoded entry reproduces the file byte for byte.
func FuzzDiskStore(f *testing.F) {
	f.Add([]byte(`{"experiment":"fig4"}`), []byte(`{"report":{"rows":[1,2,3]}}`), uint32(10), uint8(0))
	f.Add([]byte(""), []byte("d"), uint32(0), uint8(1))
	f.Add([]byte("r"), []byte(""), uint32(79), uint8(2))
	f.Add([]byte("request"), []byte("data"), uint32(1<<20), uint8(3))
	f.Fuzz(func(t *testing.T, request, data []byte, pos uint32, mode uint8) {
		dir := t.TempDir()
		st, err := OpenStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		k := Key(sha256.Sum256(append(append([]byte(nil), request...), data...)))
		if err := st.Put(k, request, data); err != nil {
			t.Fatal(err)
		}
		orig, err := os.ReadFile(st.path(k))
		if err != nil {
			t.Fatal(err)
		}

		// Fixed point: encode(decode(file)) == file.
		decReq, decData, err := decodeEntry(k, orig)
		if err != nil {
			t.Fatalf("clean entry does not decode: %v", err)
		}
		if !bytes.Equal(encodeEntry(k, decReq, decData), orig) {
			t.Fatal("re-encode is not a fixed point")
		}

		// Tamper.
		mut := append([]byte(nil), orig...)
		switch mode % 4 {
		case 0: // truncate
			mut = mut[:int(pos)%len(mut)]
		case 1: // bit flip anywhere
			mut[int(pos)%len(mut)] ^= 1 << (pos % 8)
		case 2: // header byte tamper
			mut[int(pos)%storeHeaderSize] ^= 0xFF
		case 3: // append garbage
			mut = append(mut, byte(pos), byte(pos>>8))
		}
		changed := !bytes.Equal(mut, orig)
		if err := os.WriteFile(st.path(k), mut, 0o644); err != nil {
			t.Fatal(err)
		}

		gotReq, gotData, ok := st.Get(k)
		if changed && ok {
			t.Fatalf("tampered entry served (mode %d pos %d): req %q data %q", mode%4, pos, gotReq, gotData)
		}
		if !changed && (!ok || !bytes.Equal(gotReq, request) || !bytes.Equal(gotData, data)) {
			t.Fatalf("untampered entry not served intact")
		}
		if changed {
			if _, err := os.Stat(st.path(k)); !os.IsNotExist(err) {
				t.Error("tampered entry file not deleted")
			}
		}

		// Heal: a fresh Put must restore the key exactly.
		if err := st.Put(k, request, data); err != nil {
			t.Fatal(err)
		}
		gotReq, gotData, ok = st.Get(k)
		if !ok || !bytes.Equal(gotReq, request) || !bytes.Equal(gotData, data) {
			t.Fatal("healed entry not served intact")
		}
		healed, err := os.ReadFile(st.path(k))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(healed, orig) {
			t.Fatal("healed file differs from the original encoding")
		}
	})
}

// TestStoreGetEnforcesBudget pins that Get leaves the store within its
// byte budget when it indexes a file that Scan has not seen: the least
// recently read entry and its file go.
func TestStoreGetEnforcesBudget(t *testing.T) {
	dir := t.TempDir()
	st1, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("g"), 700)
	perEntry := int64(storeHeaderSize + len(payload))
	for i := 1; i <= 3; i++ {
		if err := st1.Put(key(byte(i)), nil, payload); err != nil {
			t.Fatal(err)
		}
	}
	st2, err := OpenStore(dir, 2*perEntry)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, _, ok := st2.Get(key(byte(i))); !ok {
			t.Fatalf("entry %d not served", i)
		}
		if s := st2.StatsSnapshot(); s.Bytes > 2*perEntry {
			t.Fatalf("after Get %d: %d bytes indexed, budget %d", i, s.Bytes, 2*perEntry)
		}
	}
	if s := st2.StatsSnapshot(); s.Entries != 2 || s.Evictions != 1 {
		t.Errorf("stats = %+v, want 2 entries and 1 eviction", s)
	}
	if _, err := os.Stat(st2.path(key(1))); !os.IsNotExist(err) {
		t.Error("evicted entry 1 still on disk")
	}
}

// scanRef is Scan's index update as it was before the store shared the
// memory tier's LRU index: every file not yet indexed is pushed to the
// front, oldest first, and only then is the list trimmed from the back
// until the budget holds, keeping at least one entry. index lists the
// keys indexed before the scan, most recently used first; files lists
// the directory's entries oldest first. It returns the surviving index
// and the number of entries trimmed.
func scanRef(index, files []lruItem[struct{}], budget int64) ([]lruItem[struct{}], int) {
	list := slices.Clone(index)
	for _, f := range files {
		if !slices.ContainsFunc(index, func(it lruItem[struct{}]) bool { return it.key == f.key }) {
			list = slices.Insert(list, 0, f)
		}
	}
	var total int64
	for _, it := range list {
		total += it.size
	}
	n := len(list)
	for budget > 0 && total > budget && len(list) > 1 {
		total -= list[len(list)-1].size
		list = list[:len(list)-1]
	}
	return list, n - len(list)
}

// TestStoreScanMatchesReference holds Scan to scanRef over directories
// of random sizes and modification times, with keys read or written
// before the scan and budgets from unbounded to smaller than one entry:
// the same survivors in the same order, the same eviction count, and
// no file left for an evicted key.
func TestStoreScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	base := time.Now().Add(-time.Hour)
	for c := 0; c < 60; c++ {
		dir := t.TempDir()
		st1, err := OpenStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		nfiles := 1 + rng.Intn(12)
		var total int64
		for i, m := range rng.Perm(nfiles) {
			payload := bytes.Repeat([]byte("s"), rng.Intn(400))
			total += int64(storeHeaderSize + len(payload))
			if err := st1.Put(key(byte(i)), nil, payload); err != nil {
				t.Fatal(err)
			}
			mod := base.Add(time.Duration(m) * time.Minute)
			if err := os.Chtimes(st1.path(key(byte(i))), mod, mod); err != nil {
				t.Fatal(err)
			}
		}
		budget := int64(rng.Intn(int(total)+200)) - 100
		st, err := OpenStore(dir, budget)
		if err != nil {
			t.Fatal(err)
		}
		// Touch some keys first: read an existing file, or write one
		// (new or replacing) that Scan will find too.
		for i := rng.Intn(5); i > 0; i-- {
			k := key(byte(rng.Intn(nfiles + 3)))
			if rng.Intn(2) == 0 {
				st.Get(k)
			} else if err := st.Put(k, nil, bytes.Repeat([]byte("t"), rng.Intn(400))); err != nil {
				t.Fatal(err)
			}
		}

		before := st.StatsSnapshot().Evictions
		index := st.index.contents()
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		type file struct {
			it  lruItem[struct{}]
			mod time.Time
		}
		var files []file
		for _, de := range des {
			info, err := de.Info()
			if err != nil {
				t.Fatal(err)
			}
			raw, err := hex.DecodeString(de.Name())
			if err != nil || len(raw) != len(Key{}) {
				t.Fatalf("unexpected file %s", de.Name())
			}
			files = append(files, file{lruItem[struct{}]{key: Key(raw), size: info.Size()}, info.ModTime()})
		}
		// Files written during the touches share a recent mtime; they
		// are all indexed already, so their relative order is moot.
		slices.SortStableFunc(files, func(a, b file) int { return a.mod.Compare(b.mod) })
		var byAge []lruItem[struct{}]
		fresh := 0
		for _, f := range files {
			byAge = append(byAge, f.it)
			if !slices.ContainsFunc(index, func(it lruItem[struct{}]) bool { return it.key == f.it.key }) {
				fresh++
			}
		}
		want, wantEvicted := scanRef(index, byAge, budget)

		n, err := st.Scan()
		if err != nil {
			t.Fatal(err)
		}
		got := st.index.contents()
		evicted := int(st.StatsSnapshot().Evictions - before)
		if !slices.Equal(got, want) || evicted != wantEvicted || n != fresh {
			t.Fatalf("case %d (budget %d): Scan indexed %d, kept %v, evicted %d; reference indexed %d, kept %v, evicted %d",
				c, budget, n, got, evicted, fresh, want, wantEvicted)
		}
		for _, f := range files {
			_, statErr := os.Stat(st.path(f.it.key))
			kept := slices.ContainsFunc(want, func(it lruItem[struct{}]) bool { return it.key == f.it.key })
			if kept == os.IsNotExist(statErr) {
				t.Errorf("case %d: key %s kept %v but file present %v", c, f.it.key, kept, statErr == nil)
			}
		}
	}
}
