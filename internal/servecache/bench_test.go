package servecache

import (
	"context"
	"encoding/binary"
	"testing"
)

// BenchmarkServeCache measures the serving tier's hot paths. mem-hit
// is parallel Do over a warm memory tier (one mutex, one LRU); its
// measured line is the mem-hit row of BENCH_serve.json
// (scripts/bench.sh). The disk series prices one verified Store read
// (open, header check, SHA-256) and one atomic write-through.
func BenchmarkServeCache(b *testing.B) {
	const keys = 64
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	benchKeys := make([]Key, keys)
	for i := range benchKeys {
		binary.LittleEndian.PutUint64(benchKeys[i][:], uint64(i)*0x9e3779b97f4a7c15)
	}

	b.Run("mem-hit", func(b *testing.B) {
		c := NewWithOptions(Options{})
		for _, k := range benchKeys {
			c.Put(k, nil, payload)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				k := benchKeys[i%keys]
				i++
				if _, o, err := c.Do(context.Background(), k, nil, nil); err != nil || o != Hit {
					b.Fatalf("Do = %v, %v", o, err)
				}
			}
		})
	})

	b.Run("disk-hit", func(b *testing.B) {
		st, err := OpenStore(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range benchKeys {
			if err := st.Put(k, nil, payload); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, ok := st.Get(benchKeys[i%keys]); !ok {
				b.Fatal("disk miss")
			}
		}
	})

	b.Run("disk-write-through", func(b *testing.B) {
		st, err := OpenStore(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.Put(benchKeys[i%keys], nil, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}
