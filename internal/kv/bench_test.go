package kv

import (
	"fmt"
	"testing"
)

// benchShape is one store a benchmark workload builds: n keys of size
// bytes each, built before the clock starts into one pointer-free buffer
// (so the collector's work during a run is the store's), and its value
// size.
type benchShape struct {
	name           string
	keys           []byte
	n, size, value int
}

func (s *benchShape) key(i int) []byte { return s.keys[i*s.size : (i+1)*s.size] }

// benchShapes are the two stores the RPC workloads fill: sdskv_mixed's
// preload (65,536 random 18-byte keys, 256 B values) and one hepnos_c4
// database (4,096 sequential 56-byte event keys, 512 B values).
func benchShapes() []benchShape {
	mix := func(i int) uint64 { // splitmix64
		x := uint64(i+1) * 0x9e3779b97f4a7c15
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		return x ^ x>>31
	}
	random := benchShape{name: "sdskv", n: 65536, size: 18, value: 256}
	for i := range random.n {
		random.keys = fmt.Appendf(random.keys, "k/%016x", mix(i))
	}
	events := benchShape{name: "hepnos", n: 4096, size: 56, value: 512}
	for i := range events.n {
		events.keys = fmt.Appendf(events.keys, "hepnos-dataset-00/%012d/%012d/%012d", 7, i/512, i)
	}
	return []benchShape{random, events}
}

// benchPut times one Put per op. fill stores each key once into a fresh
// database, opened again each time the keys run out; overwrite rewrites
// the keys of a filled one with values of the same size.
func benchPut(b *testing.B, backend string) {
	for _, s := range benchShapes() {
		val := make([]byte, s.value)
		for _, overwrite := range []bool{false, true} {
			name := s.name + "/fill"
			if overwrite {
				name = s.name + "/overwrite"
			}
			b.Run(name, func(b *testing.B) {
				var db DB
				open := func() {
					var err error
					if db, err = Open(backend, "bench"); err != nil {
						b.Fatal(err)
					}
				}
				open()
				if overwrite {
					for k := range s.n {
						db.Put(s.key(k), val)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k := i % s.n
					if k == 0 && i > 0 && !overwrite {
						open()
					}
					if err := db.Put(s.key(k), val); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// benchGet times one AppendGet into a reused buffer per op, over a
// filled database.
func benchGet(b *testing.B, backend string) {
	for _, s := range benchShapes() {
		b.Run(s.name, func(b *testing.B) {
			db, err := Open(backend, "bench")
			if err != nil {
				b.Fatal(err)
			}
			val := make([]byte, s.value)
			for k := range s.n {
				db.Put(s.key(k), val)
			}
			dst := make([]byte, 0, s.value)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if v, ok, err := db.AppendGet(dst[:0], s.key(i%s.n)); err != nil || !ok || len(v) != s.value {
					b.Fatalf("get: %d bytes, %v, %v", len(v), ok, err)
				}
			}
		})
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
