package servecache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Store is the disk tier of the result cache: one file per cache key
// under a flat directory, written atomically (temp file + rename) and
// verified on every read. The file carries a fixed header — magic,
// schema version, the entry's own key, a SHA-256 over the payload, and
// the section lengths — so truncation, bit flips and header tampering
// are all detected; a file that fails any check is deleted and treated
// as a miss, never served. The store never re-runs anything itself:
// it only remembers what the memory tier computed (write-through) and
// hands it back across daemon restarts.
//
// Bounded disk comes from a byte budget over the summed entry sizes,
// evicted least-recently-accessed first by the same LRU index the
// memory tier keeps. The access order is seeded by file modification
// time during Scan (warm boot) and refined by Get and Put, each of
// which leaves the store within budget. All methods are safe for
// concurrent use.
type Store struct {
	dir string

	mu    sync.Mutex
	index lru[struct{}] // byte budget only
	stats StoreStats
}

// StoreStats are the disk tier's cumulative counters.
type StoreStats struct {
	// Hits and Misses count Get outcomes; Corrupt counts the subset of
	// misses caused by a file that failed verification (and was
	// deleted).
	Hits, Misses, Corrupt int64
	// Writes counts successful Puts, WriteErrors failed ones.
	Writes, WriteErrors int64
	// Evictions counts entries dropped by the byte budget.
	Evictions int64
	// Entries and Bytes describe the current indexed corpus.
	Entries int
	Bytes   int64
}

// On-disk entry layout (all integers little-endian):
//
//	offset  0: magic "MCS1" (4 bytes)
//	offset  4: schema version uint32
//	offset  8: cache key (32 bytes; must match the file name)
//	offset 40: SHA-256 over request||data (32 bytes)
//	offset 72: request length uint32
//	offset 76: data length uint32
//	offset 80: request bytes, then data bytes
//
// The encoding is a fixed point: decode(encode(k, req, data)) returns
// exactly (req, data), and re-encoding them reproduces the file byte
// for byte (FuzzDiskStore pins this).
const (
	storeVersion    = 1
	storeHeaderSize = 80
)

var storeMagic = [4]byte{'M', 'C', 'S', '1'}

// encodeEntry renders the on-disk form of one entry.
func encodeEntry(k Key, request, data []byte) []byte {
	b := make([]byte, storeHeaderSize+len(request)+len(data))
	copy(b[0:4], storeMagic[:])
	binary.LittleEndian.PutUint32(b[4:8], storeVersion)
	copy(b[8:40], k[:])
	h := sha256.New()
	h.Write(request)
	h.Write(data)
	h.Sum(b[40:40])
	binary.LittleEndian.PutUint32(b[72:76], uint32(len(request)))
	binary.LittleEndian.PutUint32(b[76:80], uint32(len(data)))
	copy(b[storeHeaderSize:], request)
	copy(b[storeHeaderSize+len(request):], data)
	return b
}

// decodeEntry verifies and splits an on-disk entry. Any inconsistency
// — short file, wrong magic or version, key not matching k, section
// lengths not matching the file size, or a payload hash mismatch — is
// an error; the caller treats it as a miss.
func decodeEntry(k Key, b []byte) (request, data []byte, err error) {
	if len(b) < storeHeaderSize {
		return nil, nil, fmt.Errorf("entry truncated: %d bytes, need at least %d", len(b), storeHeaderSize)
	}
	if [4]byte(b[0:4]) != storeMagic {
		return nil, nil, fmt.Errorf("bad magic %q", b[0:4])
	}
	if v := binary.LittleEndian.Uint32(b[4:8]); v != storeVersion {
		return nil, nil, fmt.Errorf("schema version %d, want %d", v, storeVersion)
	}
	if Key(b[8:40]) != k {
		return nil, nil, fmt.Errorf("entry key %s does not match file name", Key(b[8:40]))
	}
	reqLen := uint64(binary.LittleEndian.Uint32(b[72:76]))
	dataLen := uint64(binary.LittleEndian.Uint32(b[76:80]))
	if storeHeaderSize+reqLen+dataLen != uint64(len(b)) {
		return nil, nil, fmt.Errorf("section lengths %d+%d do not match file size %d", reqLen, dataLen, len(b))
	}
	request = b[storeHeaderSize : storeHeaderSize+reqLen]
	data = b[storeHeaderSize+reqLen:]
	h := sha256.New()
	h.Write(request)
	h.Write(data)
	if sum := h.Sum(nil); [32]byte(sum) != [32]byte(b[40:72]) {
		return nil, nil, fmt.Errorf("payload hash mismatch")
	}
	return request, data, nil
}

// OpenStore opens (creating if needed) a disk store rooted at dir with
// the given byte budget (maxBytes < 1 selects unbounded). The directory
// is usable immediately — Get reads files directly — but eviction
// accounting only covers entries Scan has indexed or Put/Get have
// touched; call Scan to warm-boot the index over a prior corpus.
func OpenStore(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("servecache: opening store: %w", err)
	}
	s := &Store{dir: dir}
	s.index.maxBytes = maxBytes
	return s, nil
}

func (s *Store) path(k Key) string { return filepath.Join(s.dir, k.String()) }

// Scan indexes the directory's existing entries — the warm-boot pass a
// restarted daemon runs so its prior corpus is accounted (and served)
// without re-running anything. Files are indexed oldest-modified first
// so the pre-restart access order approximately survives, and the
// budget keeps the longest newest run that fits; keys a Get or Put
// indexed before the scan keep their place. Leftover temp files from
// an interrupted write are removed. Returns the number of entries
// indexed.
func (s *Store) Scan() (int, error) {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("servecache: scanning store: %w", err)
	}
	type found struct {
		key  Key
		size int64
		mod  int64
	}
	var fs []found
	for _, de := range des {
		name := de.Name()
		if strings.HasPrefix(name, ".tmp-") {
			os.Remove(filepath.Join(s.dir, name))
			continue
		}
		raw, err := hex.DecodeString(name)
		if err != nil || len(raw) != 32 || de.IsDir() {
			continue // not an entry file
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		fs = append(fs, found{key: Key(raw), size: info.Size(), mod: info.ModTime().UnixNano()})
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].mod < fs[j].mod })

	s.mu.Lock()
	defer s.mu.Unlock()
	// Drop the keys indexed before the scan first: the budget may evict
	// one of them, and its file, before its turn in fs comes.
	fresh := slices.DeleteFunc(fs, func(f found) bool {
		_, indexed := s.index.items[f.key]
		return indexed
	})
	for _, f := range fresh {
		s.evictLocked(s.index.put(f.key, struct{}{}, f.size))
	}
	return len(fresh), nil
}

// Get returns the verified entry for k, or ok=false. A file that fails
// verification is deleted (the next Put heals the key) and reported as
// a miss — a corrupt entry is never served.
func (s *Store) Get(k Key) (request, data []byte, ok bool) {
	b, err := os.ReadFile(s.path(k))
	if err != nil {
		s.mu.Lock()
		s.index.remove(k)
		s.stats.Misses++
		s.mu.Unlock()
		return nil, nil, false
	}
	request, data, err = decodeEntry(k, b)
	if err != nil {
		os.Remove(s.path(k))
		s.mu.Lock()
		s.index.remove(k)
		s.stats.Misses++
		s.stats.Corrupt++
		s.mu.Unlock()
		return nil, nil, false
	}
	s.mu.Lock()
	s.evictLocked(s.index.put(k, struct{}{}, int64(len(b))))
	s.stats.Hits++
	s.mu.Unlock()
	return request, data, true
}

// Put writes (or replaces) the entry for k atomically: the bytes land
// in a temp file first and are renamed into place, so a reader — or a
// crash — never observes a half-written entry.
func (s *Store) Put(k Key, request, data []byte) error {
	b := encodeEntry(k, request, data)
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err == nil {
		_, err = tmp.Write(b)
		if cerr := tmp.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp.Name(), s.path(k))
		}
		if err != nil {
			os.Remove(tmp.Name())
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.stats.WriteErrors++
		return fmt.Errorf("servecache: writing entry %s: %w", k, err)
	}
	s.stats.Writes++
	s.evictLocked(s.index.put(k, struct{}{}, int64(len(b))))
	return nil
}

// evictLocked removes the files of the keys the byte budget evicted
// and counts them. Callers hold s.mu.
func (s *Store) evictLocked(keys []Key) {
	for _, k := range keys {
		os.Remove(s.path(k))
	}
	s.stats.Evictions += int64(len(keys))
}

// StatsSnapshot returns the cumulative counters.
func (s *Store) StatsSnapshot() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.index.order.Len()
	st.Bytes = s.index.bytes
	return st
}
