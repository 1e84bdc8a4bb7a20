package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// TestStoreOwnsItsBytes runs random put / overwrite-smaller /
// overwrite-larger / delete / get / list traffic against a
// map[string]string model, with value sizes on both sides of the chunk
// table's own-slot threshold, and holds every backend to the two halves
// of the DB contract the chunk table leans on: Put copies (the caller
// scribbles over its key and value buffers right after every call), and
// what Get and List return is the caller's (every slice ever returned
// is re-checked at the end, after later Puts rewrote values in place).
func TestStoreOwnsItsBytes(t *testing.T) {
	sizes := []int{0, 1, 7, 48, 512, 600, chunkSize / 4, chunkSize/4 + 1, chunkSize + 100}
	for i, db := range allBackends(t) {
		t.Run(backends[i], func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			model := make(map[string]string)
			type handed struct{ got, want []byte }
			var out []handed
			hand := func(got []byte) {
				out = append(out, handed{got, append([]byte(nil), got...)})
			}
			kbuf, vbuf := make([]byte, 0, 16), make([]byte, 0, chunkSize+100)
			for op := 0; op < 4000; op++ {
				kbuf = append(kbuf[:0], fmt.Sprintf("key-%03d", rng.Intn(200))...)
				k := string(kbuf)
				switch rng.Intn(10) {
				case 0: // delete
					was, err := db.Delete(kbuf)
					if _, in := model[k]; err != nil || was != in {
						t.Fatalf("op %d: delete(%s) = %v, %v; model %v", op, k, was, err, in)
					}
					delete(model, k)
				case 1, 2: // get
					v, ok, err := db.Get(kbuf)
					if mv, in := model[k]; err != nil || ok != in || string(v) != mv {
						t.Fatalf("op %d: get(%s) = %d bytes/%v, %v; model %d bytes/%v", op, k, len(v), ok, err, len(mv), in)
					}
					hand(v)
				case 3: // list a window
					pairs, _, err := db.AppendList(nil, nil, kbuf, 5)
					if err != nil {
						t.Fatal(err)
					}
					for _, p := range pairs {
						if string(p.Value) != model[string(p.Key)] {
							t.Fatalf("op %d: list from %s: %s has %d bytes, model %d", op, k, p.Key, len(p.Value), len(model[string(p.Key)]))
						}
						hand(p.Key)
						hand(p.Value)
					}
				default: // put: new key, or an overwrite smaller or larger than before
					vbuf = vbuf[:sizes[rng.Intn(len(sizes))]]
					for i := range vbuf {
						vbuf[i] = byte(op + i)
					}
					if err := db.Put(kbuf, vbuf); err != nil {
						t.Fatal(err)
					}
					model[k] = string(vbuf)
					for i := range vbuf {
						vbuf[i] = 0xEE
					}
					for i := range kbuf {
						kbuf[i] = 0xEE
					}
				}
			}
			for i, h := range out {
				if !bytes.Equal(h.got, h.want) {
					t.Fatalf("slice %d handed out by Get/List changed after a later Put", i)
				}
			}
			keys := make([]string, 0, len(model))
			for k := range model {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			pairs, _, err := db.AppendList(nil, nil, nil, len(model)+1)
			if err != nil || len(pairs) != len(model) || db.Len() != len(model) {
				t.Fatalf("List = %d pairs, %v; Len %d; model %d", len(pairs), err, db.Len(), len(model))
			}
			for i, k := range keys {
				if string(pairs[i].Key) != k || string(pairs[i].Value) != model[k] {
					t.Fatalf("List[%d] = %q (%d bytes), want %q (%d bytes)", i, pairs[i].Key, len(pairs[i].Value), k, len(model[k]))
				}
			}
		})
	}
}

// TestMapPutAllocs pins what the chunk table and the inline node arrays
// buy the "map" backend: a new 48 B / 512 B pair costs no allocation of
// its own — one 16 KiB chunk per 29 pairs, plus a leaf split every 16
// ordered inserts (one new leaf and one separator copy; the half that
// stays is rewritten in place) and the chunk table's own growth — and an
// overwrite that fits costs nothing at all.
func TestMapPutAllocs(t *testing.T) {
	db, err := Open("map", "pin")
	if err != nil {
		t.Fatal(err)
	}
	key, val := make([]byte, 48), make([]byte, 512)
	var n uint64
	fresh := mallocsPerRun(20000, func() {
		n++
		binary.BigEndian.PutUint64(key[40:], n)
		if err := db.Put(key, val); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Put of a new pair: %.3f objects amortised", fresh)
	if fresh > 0.30 {
		t.Errorf("Put of a new pair allocates %.3f objects amortised, want <= 0.30 (chunks 0.035 + splits 0.125)", fresh)
	}
	tr := newBTree()
	if a := mallocsPerRun(20000, func() { tr.alloc(560) }); a > 0.05 {
		t.Errorf("alloc(560) allocates %.3f objects amortised, want one chunk per 29", a)
	}
	over := testing.AllocsPerRun(1000, func() {
		val[0]++
		if err := db.Put(key, val[:400]); err != nil {
			t.Fatal(err)
		}
		if err := db.Put(key, val); err != nil {
			t.Fatal(err)
		}
	})
	if over != 0 {
		t.Errorf("overwriting smaller then back to full size allocates %.1f objects, want 0", over)
	}
	if v, ok, _ := db.Get(key); !ok || !bytes.Equal(v, val) {
		t.Fatal("overwritten value differs")
	}
}

// TestAppendReadsAllocateNothing pins the read half of the contract: a
// Get or a 64-pair listing into caller buffers that have room costs the
// store nothing — the copy out is the only work, and it lands in memory
// the caller already owns. The unordered engine sorts a listing's keys
// first, which is its one allocation.
func TestAppendReadsAllocateNothing(t *testing.T) {
	for b, db := range allBackends(t) {
		const n = 64
		key := make([]byte, 48)
		for i := uint64(0); i < 4*n; i++ {
			binary.BigEndian.PutUint64(key[40:], i)
			if err := db.Put(key, make([]byte, 256)); err != nil {
				t.Fatal(err)
			}
		}
		dst := make([]byte, 0, 256)
		var i uint64
		get := mallocsPerRun(2000, func() {
			i++
			binary.BigEndian.PutUint64(key[40:], i%(4*n))
			if v, ok, err := db.AppendGet(dst[:0], key); err != nil || !ok || len(v) != 256 {
				t.Fatalf("AppendGet = %d bytes, %v, %v", len(v), ok, err)
			}
		})
		if get != 0 {
			t.Errorf("%s: AppendGet into a buffer with room allocates %.3f objects, want 0", backends[b], get)
		}
		pairs, buf := make([]Pair, 0, n), make([]byte, 0, n*(48+256))
		list := mallocsPerRun(200, func() {
			got, _, err := db.AppendList(pairs[:0], buf[:0], nil, n)
			if err != nil || len(got) != n {
				t.Fatalf("AppendList = %d pairs, %v", len(got), err)
			}
		})
		if list != 0 {
			t.Errorf("%s: AppendList of %d pairs into sized buffers allocates %.3f objects, want 0", backends[b], n, list)
		}
	}
}

// TestDeletedBytesAreReclaimed bounds what the chunk table retains: ranges
// are never reused, so without btree.reclaim one survivor per chunk
// would pin everything ever stored. Deleting nine pairs
// in ten, scattered so that every chunk keeps a survivor, must release
// most of the heap the load took, deleting the rest nearly all of it,
// and a value that keeps growing must not leave its previous copies
// behind.
func TestDeletedBytesAreReclaimed(t *testing.T) {
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	db, err := Open("map", "retain")
	if err != nil {
		t.Fatal(err)
	}
	const pairs = 20000
	key, val := make([]byte, 48), make([]byte, 512)
	base := heap()
	for i := 0; i < pairs; i++ {
		binary.BigEndian.PutUint64(key[40:], uint64(i))
		if err := db.Put(key, val); err != nil {
			t.Fatal(err)
		}
	}
	loaded := heap() - base
	if loaded < pairs*560 {
		t.Fatalf("loading %d pairs took %d B of heap, less than their bytes", pairs, loaded)
	}
	remove := func(keep func(i int) bool) {
		for i := 0; i < pairs; i++ {
			if keep(i) {
				continue
			}
			binary.BigEndian.PutUint64(key[40:], uint64(i))
			if _, err := db.Delete(key); err != nil {
				t.Fatal(err)
			}
		}
	}
	remove(func(i int) bool { return i%10 == 0 })
	if kept := heap() - base; kept > loaded/4 {
		t.Errorf("a tenth of the pairs survive but %d of %d B stay live", kept, loaded)
	}
	for i := 0; i < pairs; i += 10 {
		binary.BigEndian.PutUint64(key[40:], uint64(i))
		if v, ok, err := db.Get(key); err != nil || !ok || len(v) != len(val) {
			t.Fatalf("survivor %d = %d bytes, %v, %v", i, len(v), ok, err)
		}
	}
	remove(func(int) bool { return false })
	if kept := heap() - base; db.Len() != 0 || kept > loaded/20 {
		t.Errorf("every pair deleted (Len %d) but %d of %d B stay live", db.Len(), kept, loaded)
	}

	grown := make([]byte, chunkSize/4)
	empty := heap()
	tr := db.(*btreeDB).t
	slots := len(tr.chunks)
	for n := 1; n <= len(grown); n++ {
		grown[n-1] = byte(n)
		if err := db.Put(key, grown[:n]); err != nil {
			t.Fatal(err)
		}
		// One chunk for the first copy, then one own slot, replaced by
		// each growth after.
		if len(tr.chunks) > slots+2 {
			t.Fatalf("a value grown to %d B in steps of one fills %d chunk-table slots", n, len(tr.chunks)-slots)
		}
	}
	if kept := heap() - empty; kept > 16*int64(len(grown)) {
		t.Errorf("one value grown to %d B in steps of one keeps %d B live", len(grown), kept)
	}
	if v, _, _ := db.Get(key); !bytes.Equal(v, grown) {
		t.Fatal("grown value differs")
	}
	// Key and value now fill a slot of their own, the table's newest.
	if _, err := db.Delete(key); err != nil {
		t.Fatal(err)
	}
	if n := len(tr.chunks); n > 0 && tr.chunks[n-1] != nil {
		t.Error("deleting a pair with a slot of its own left the slot holding it")
	}
	runtime.KeepAlive(db)
}

// TestLeavesHoldNoPointers: a leaf locates its pairs by chunk-table
// index, never by pointer. A pointer, slice, map, string or interface
// anywhere in it would make the collector scan every leaf again and put
// a write barrier on every entry shift.
func TestLeavesHoldNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := range typ.NumField() {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
			reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s", path, typ.Kind())
		}
	}
	walk("leaf", reflect.TypeOf(leaf{}))
}

// TestMapReadsBesideGrowthAndReclaim: four readers list and get while
// one writer puts values that outgrow their ranges (new own slots, then
// replaced ones, past a quarter chunk and back) and deletes, so the
// chunk table grows, slots are replaced and cleared, and the tree
// rebuilds itself under the readers again and again. Every value read
// must be one some Put wrote. Run under -race by `make race`.
func TestMapReadsBesideGrowthAndReclaim(t *testing.T) {
	const keys, writes = 64, 6000
	db := newBTreeDB("race")
	key := func(i int) []byte { return fmt.Appendf(nil, "race/%03d", i) }
	stamp := make([]byte, 256+chunkSize/2)
	for i := range stamp {
		stamp[i] = byte(i * 7)
	}
	// Version v of key i is the pair (i, v) then a run of the stamp both
	// pick, v*97 bytes long modulo half a chunk.
	value := func(dst []byte, i, v int) []byte {
		dst = binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(dst[:0], uint32(i)), uint32(v))
		return append(dst, stamp[(i*31+v)%256:][:v*97%(chunkSize/2)]...)
	}
	written := func(i int, got []byte) bool {
		if len(got) < 8 || int(binary.BigEndian.Uint32(got)) != i {
			return false
		}
		return bytes.Equal(got, value(nil, i, int(binary.BigEndian.Uint32(got[4:]))))
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var buf, lbuf []byte
			var pairs []Pair
			for n := r; !stop.Load(); n++ {
				i := n * 13 % keys
				v, found, err := db.AppendGet(buf[:0], key(i))
				if err != nil || found && !written(i, v) {
					t.Errorf("get %d: %d bytes no Put wrote, %v", i, len(v), err)
					return
				}
				buf = v
				if pairs, lbuf, err = db.AppendList(pairs[:0], lbuf[:0], key(i), 8); err != nil {
					t.Error(err)
					return
				}
				for _, p := range pairs {
					var j int
					if _, err := fmt.Sscanf(string(p.Key), "race/%03d", &j); err != nil || !written(j, p.Value) {
						t.Errorf("list from %d: %q = %d bytes no Put wrote", i, p.Key, len(p.Value))
						return
					}
				}
			}
		}(r)
	}
	var vbuf []byte
	for w := 0; w < writes; w++ {
		i := w % keys
		var err error
		if w%7 == 6 {
			_, err = db.Delete(key(i))
		} else {
			vbuf = value(vbuf, i, w)
			err = db.Put(key(i), vbuf)
		}
		if err != nil {
			t.Error(err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
}

// mallocsPerRun is testing.AllocsPerRun without the truncation to a
// whole number, which would report every amortised cost below one
// object as zero.
func mallocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}
