package kv

import (
	"fmt"
	"testing"
)

func benchPut(b *testing.B, backend string) {
	db, err := Open(backend, "bench")
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	val := make([]byte, 128)
	b.SetBytes(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("key-%09d", i))
		if err := db.Put(key, val); err != nil {
			b.Fatal(err)
		}
	}
}

func benchGet(b *testing.B, backend string) {
	db, err := Open(backend, "bench")
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	const n = 10_000
	val := make([]byte, 128)
	for i := 0; i < n; i++ {
		db.Put([]byte(fmt.Sprintf("key-%09d", i)), val)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("key-%09d", i%n))
		if _, ok, err := db.Get(key); err != nil || !ok {
			b.Fatalf("get: %v %v", ok, err)
		}
	}
}

func BenchmarkMapPut(b *testing.B)     { benchPut(b, "map") }
func BenchmarkMapGet(b *testing.B)     { benchGet(b, "map") }
func BenchmarkShardedPut(b *testing.B) { benchPut(b, "shardedmap") }
func BenchmarkShardedGet(b *testing.B) { benchGet(b, "shardedmap") }

// BenchmarkMapList measures the prefix scan behind sdskv_list_keyvals.
func BenchmarkMapList(b *testing.B) {
	db, _ := Open("map", "bench")
	defer db.Close()
	for i := 0; i < 10_000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%09d", i)), []byte("v"))
	}
	var pairs []Pair
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if pairs, buf, err = db.AppendList(pairs[:0], buf[:0], []byte("key-000005"), 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRingOwner measures the elastic routing hot path: one
// rendezvous Ring.Owner resolution per op over a 16-member ring with
// realistic keys. Every client put/get and every migration sweep pays
// this cost per key.
func BenchmarkRingOwner(b *testing.B) {
	ring := NewRing(1, ringMembers(16))
	keys := ringKeys(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ring.Owner(keys[i%len(keys)]) == "" {
			b.Fatal("empty owner")
		}
	}
}
