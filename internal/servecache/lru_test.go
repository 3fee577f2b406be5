package servecache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refLRU is the naive reference for lru: a slice of items, most
// recently used first, scanned linearly by every operation.
type refLRU struct {
	items      []lruItem[int]
	maxEntries int
	maxBytes   int64
}

func (r *refLRU) find(k Key) int {
	return slices.IndexFunc(r.items, func(it lruItem[int]) bool { return it.key == k })
}

func (r *refLRU) bytes() int64 {
	var n int64
	for _, it := range r.items {
		n += it.size
	}
	return n
}

func (r *refLRU) get(k Key) (int, bool) {
	i := r.find(k)
	if i < 0 {
		return 0, false
	}
	it := r.items[i]
	r.items = slices.Insert(slices.Delete(r.items, i, i+1), 0, it)
	return it.val, true
}

func (r *refLRU) put(k Key, v int, size int64) []Key {
	if i := r.find(k); i >= 0 {
		r.items = slices.Delete(r.items, i, i+1)
	}
	r.items = slices.Insert(r.items, 0, lruItem[int]{key: k, val: v, size: size})
	var evicted []Key
	for len(r.items) > 1 &&
		((r.maxEntries > 0 && len(r.items) > r.maxEntries) || (r.maxBytes > 0 && r.bytes() > r.maxBytes)) {
		evicted = append(evicted, r.items[len(r.items)-1].key)
		r.items = r.items[:len(r.items)-1]
	}
	return evicted
}

func (r *refLRU) remove(k Key) {
	if i := r.find(k); i >= 0 {
		r.items = slices.Delete(r.items, i, i+1)
	}
}

// contents lists l's items, most recently used first.
func (l *lru[V]) contents() []lruItem[V] {
	var out []lruItem[V]
	for el := l.order.Front(); el != nil; el = el.Next() {
		out = append(out, *el.Value.(*lruItem[V]))
	}
	return out
}

// lruOp is one operation of a differential sequence: 0 get, 1 put,
// 2 remove, over a small key space so keys repeat and replace.
type lruOp struct {
	kind uint8
	key  byte
	size int64
}

// checkLRU runs ops on an lru and on refLRU and fails at the first
// difference in a returned value, the contents and their order, the
// byte total, or the evicted keys.
func checkLRU(t *testing.T, maxEntries int, maxBytes int64, ops []lruOp) {
	t.Helper()
	l := lru[int]{maxEntries: maxEntries, maxBytes: maxBytes}
	ref := refLRU{maxEntries: maxEntries, maxBytes: maxBytes}
	for i, op := range ops {
		k := key(op.key)
		where := fmt.Sprintf("op %d (%+v) at bounds %d entries, %d bytes", i, op, maxEntries, maxBytes)
		switch op.kind % 3 {
		case 0:
			got, gotOK := l.get(k)
			want, wantOK := ref.get(k)
			if got != want || gotOK != wantOK {
				t.Fatalf("%s: get = %d, %v; reference %d, %v", where, got, gotOK, want, wantOK)
			}
		case 1:
			got, want := l.put(k, i, op.size), ref.put(k, i, op.size)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: put evicted %v; reference %v", where, got, want)
			}
		case 2:
			l.remove(k)
			ref.remove(k)
		}
		if got := l.contents(); !slices.Equal(got, ref.items) {
			t.Fatalf("%s: contents %+v; reference %+v", where, got, ref.items)
		}
		if l.bytes != ref.bytes() || len(l.items) != len(ref.items) {
			t.Fatalf("%s: %d bytes in %d map entries; reference %d bytes in %d items",
				where, l.bytes, len(l.items), ref.bytes(), len(ref.items))
		}
	}
}

// TestLRUMatchesReference holds lru to refLRU over random get, put and
// remove sequences at random entry and byte bounds (none, tight and
// loose), with replacements that change a size and sizes larger than
// the byte bound.
func TestLRUMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for c := 0; c < 2000; c++ {
		maxEntries := rng.Intn(7) - 1
		maxBytes := int64(rng.Intn(300)) - 20
		ops := make([]lruOp, 1+rng.Intn(80))
		for i := range ops {
			ops[i] = lruOp{kind: uint8(rng.Intn(3)), key: byte(rng.Intn(8)), size: int64(rng.Intn(120))}
			if rng.Intn(20) == 0 {
				ops[i].size = max(maxBytes, 0) + 1 + int64(rng.Intn(50)) // over the byte bound alone
			}
		}
		checkLRU(t, maxEntries, maxBytes, ops)
	}
}

// FuzzLRU is TestLRUMatchesReference on fuzzed bounds and operations:
// each operation takes two bytes (kind and key, then size).
func FuzzLRU(f *testing.F) {
	f.Add(int8(2), int16(0), []byte{0x01, 10, 0x05, 20, 0x09, 30, 0x04, 0, 0x0d, 40})
	f.Add(int8(0), int16(100), []byte{0x01, 60, 0x05, 50, 0x01, 90, 0x02, 0, 0x09, 200})
	f.Add(int8(-1), int16(-1), []byte{0x01, 1, 0x01, 2, 0x06, 0, 0x00, 0})
	f.Fuzz(func(t *testing.T, maxEntries int8, maxBytes int16, raw []byte) {
		ops := make([]lruOp, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			ops = append(ops, lruOp{kind: raw[i] & 3, key: raw[i] >> 2 & 7, size: int64(raw[i+1])})
		}
		checkLRU(t, int(maxEntries), int64(maxBytes), ops)
	})
}
