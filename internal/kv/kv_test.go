package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// backends names every engine Open knows.
var backends = []string{"map", "shardedmap"}

func allBackends(t *testing.T) []DB {
	t.Helper()
	var dbs []DB
	for _, b := range backends {
		db, err := Open(b, "test-"+b)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		dbs = append(dbs, db)
	}
	return dbs
}

func TestOpenUnknownBackend(t *testing.T) {
	if _, err := Open("bogus", "x"); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

func TestBasicPutGetDeleteAllBackends(t *testing.T) {
	for i, db := range allBackends(t) {
		t.Run(backends[i], func(t *testing.T) {
			if err := db.Put([]byte("a"), []byte("1")); err != nil {
				t.Fatal(err)
			}
			v, ok, err := db.Get([]byte("a"))
			if err != nil || !ok || string(v) != "1" {
				t.Fatalf("Get = %q %v %v", v, ok, err)
			}
			// Overwrite.
			db.Put([]byte("a"), []byte("2"))
			v, _, _ = db.Get([]byte("a"))
			if string(v) != "2" {
				t.Fatalf("overwrite failed: %q", v)
			}
			if db.Len() != 1 {
				t.Fatalf("Len = %d", db.Len())
			}
			// Missing key.
			if _, ok, _ := db.Get([]byte("zz")); ok {
				t.Fatal("missing key found")
			}
			// Delete.
			was, err := db.Delete([]byte("a"))
			if err != nil || !was {
				t.Fatalf("Delete = %v %v", was, err)
			}
			if _, ok, _ := db.Get([]byte("a")); ok {
				t.Fatal("deleted key still present")
			}
			if was, _ := db.Delete([]byte("a")); was {
				t.Fatal("double delete reported present")
			}
			if db.Len() != 0 {
				t.Fatalf("Len after delete = %d", db.Len())
			}
		})
	}
}

func TestEmptyValueRoundTrip(t *testing.T) {
	for i, db := range allBackends(t) {
		v0 := []byte{}
		if err := db.Put([]byte("empty"), v0); err != nil {
			t.Fatal(err)
		}
		v, ok, err := db.Get([]byte("empty"))
		if err != nil || !ok || len(v) != 0 {
			t.Fatalf("%s: empty value: %q %v %v", backends[i], v, ok, err)
		}
	}
}

func TestListOrderedBackends(t *testing.T) {
	for i, db := range allBackends(t) {
		keys := []string{"b", "d", "a", "c", "e"}
		for _, k := range keys {
			db.Put([]byte(k), []byte("v"+k))
		}
		pairs, _, err := db.AppendList(nil, nil, []byte("b"), 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(pairs) != 3 {
			t.Fatalf("%s: List = %d pairs", backends[i], len(pairs))
		}
		want := []string{"b", "c", "d"}
		for i, p := range pairs {
			if string(p.Key) != want[i] {
				t.Fatalf("%s: List keys = %v", backends[i], pairs)
			}
			if string(p.Value) != "v"+want[i] {
				t.Fatalf("%s: value mismatch: %q", backends[i], p.Value)
			}
		}
		// max <= 0 returns nothing.
		if pairs, _, _ := db.AppendList(nil, nil, nil, 0); pairs != nil {
			t.Fatalf("%s: AppendList(0) = %v", backends[i], pairs)
		}
	}
}

func TestClosedBackendErrors(t *testing.T) {
	for _, b := range backends {
		db, _ := Open(b, "closing")
		db.Close()
		if err := db.Put([]byte("k"), []byte("v")); err != ErrClosed {
			t.Fatalf("%s: Put after close = %v", b, err)
		}
		if _, _, err := db.Get([]byte("k")); err != ErrClosed {
			t.Fatalf("%s: Get after close = %v", b, err)
		}
		if _, err := db.Delete([]byte("k")); err != ErrClosed {
			t.Fatalf("%s: Delete after close = %v", b, err)
		}
		if _, _, err := db.AppendList(nil, nil, nil, 1); err != ErrClosed {
			t.Fatalf("%s: AppendList after close = %v", b, err)
		}
	}
}

// TestBackendsMatchModel drives every backend against a model map with a
// random operation sequence and demands identical visible state.
func TestBackendsMatchModel(t *testing.T) {
	for i, db := range allBackends(t) {
		t.Run(backends[i], func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			model := make(map[string]string)
			for op := 0; op < 5000; op++ {
				k := fmt.Sprintf("key-%03d", rng.Intn(300))
				switch rng.Intn(10) {
				case 0, 1: // delete
					was, err := db.Delete([]byte(k))
					if err != nil {
						t.Fatal(err)
					}
					_, inModel := model[k]
					if was != inModel {
						t.Fatalf("op %d: delete(%s) = %v, model %v", op, k, was, inModel)
					}
					delete(model, k)
				case 2, 3: // get
					v, ok, err := db.Get([]byte(k))
					if err != nil {
						t.Fatal(err)
					}
					mv, inModel := model[k]
					if ok != inModel || (ok && string(v) != mv) {
						t.Fatalf("op %d: get(%s) = %q/%v, model %q/%v", op, k, v, ok, mv, inModel)
					}
				default: // put
					v := fmt.Sprintf("val-%d", op)
					if err := db.Put([]byte(k), []byte(v)); err != nil {
						t.Fatal(err)
					}
					model[k] = v
				}
			}
			if db.Len() != len(model) {
				t.Fatalf("Len = %d, model %d", db.Len(), len(model))
			}
			// Full listing matches sorted model contents.
			pairs, _, err := db.AppendList(nil, nil, nil, len(model)+10)
			if err != nil {
				t.Fatal(err)
			}
			if len(pairs) != len(model) {
				t.Fatalf("List = %d, model %d", len(pairs), len(model))
			}
			keys := make([]string, 0, len(model))
			for k := range model {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for i, k := range keys {
				if string(pairs[i].Key) != k || string(pairs[i].Value) != model[k] {
					t.Fatalf("List[%d] = %q=%q, want %q=%q",
						i, pairs[i].Key, pairs[i].Value, k, model[k])
				}
			}
		})
	}
}

// TestBTreeSplitsDeep inserts enough ordered and reverse-ordered keys to
// force multiple levels of splits.
func TestBTreeSplitsDeep(t *testing.T) {
	for _, order := range []string{"asc", "desc", "rand"} {
		tr := newBTree()
		const n = 10_000
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		switch order {
		case "desc":
			for i := range perm {
				perm[i] = n - 1 - i
			}
		case "rand":
			rand.New(rand.NewSource(7)).Shuffle(n, func(i, j int) {
				perm[i], perm[j] = perm[j], perm[i]
			})
		}
		for _, i := range perm {
			k := []byte(fmt.Sprintf("%08d", i))
			tr.put(k, k)
		}
		if tr.size != n {
			t.Fatalf("%s: size = %d", order, tr.size)
		}
		for i := 0; i < n; i += 97 {
			k := []byte(fmt.Sprintf("%08d", i))
			v, ok := tr.get(k)
			if !ok || !bytes.Equal(v, k) {
				t.Fatalf("%s: get(%s) = %q %v", order, k, v, ok)
			}
		}
		// Ordered full scan.
		prev := []byte(nil)
		count := 0
		tr.scan(nil, func(k, v []byte) bool {
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				t.Fatalf("%s: scan out of order: %q then %q", order, prev, k)
			}
			prev = append(prev[:0], k...)
			count++
			return true
		})
		if count != n {
			t.Fatalf("%s: scan visited %d", order, count)
		}
	}
}

func TestBTreePropertyAgainstMap(t *testing.T) {
	prop := func(ops []struct {
		Key byte
		Val uint16
		Del bool
	}) bool {
		tr := newBTree()
		model := map[byte][]byte{}
		for _, op := range ops {
			k := []byte{op.Key}
			if op.Del {
				tr.delete(k)
				delete(model, op.Key)
			} else {
				v := []byte(fmt.Sprint(op.Val))
				tr.put(k, v)
				model[op.Key] = v
			}
		}
		if tr.size != len(model) {
			return false
		}
		for k, v := range model {
			got, ok := tr.get([]byte{k})
			if !ok || !bytes.Equal(got, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestShardedConcurrentWriters(t *testing.T) {
	db := newShardedDB("conc")
	if !db.ConcurrentWrites() {
		t.Fatal("sharded map must report concurrent write support")
	}
	var wg sync.WaitGroup
	const writers, per = 8, 500
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := fmt.Sprintf("w%d-k%d", w, i)
				if err := db.Put([]byte(k), []byte(k)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if db.Len() != writers*per {
		t.Fatalf("Len = %d, want %d", db.Len(), writers*per)
	}
}

func TestSerialBackendsDeclareIt(t *testing.T) {
	for _, b := range []string{"map"} {
		db, _ := Open(b, "x")
		if db.ConcurrentWrites() {
			t.Fatalf("%s claims concurrent writes", b)
		}
		db.Close()
	}
}

// TestListPairsShareOneBufferSafely: the map and shardedmap engines copy
// a listing into the caller's buffer, grown once, and the pairs are
// still copies: a later Put does not change them, writing through one
// does not reach the store, and appending to one reallocates instead of
// running into its neighbour. A second listing appended behind the first
// leaves the first as it was.
func TestListPairsShareOneBufferSafely(t *testing.T) {
	for _, backend := range []string{"map", "shardedmap"} {
		db, err := Open(backend, "list")
		if err != nil {
			t.Fatal(err)
		}
		const n = 64
		key := func(i int) []byte { return []byte(fmt.Sprintf("omap/object-%04d/a-key-longer-than-a-small-string", i)) }
		for i := 0; i < n; i++ {
			if err := db.Put(key(i), []byte(fmt.Sprintf("value-%04d", i))); err != nil {
				t.Fatal(err)
			}
		}
		pairs, buf, err := db.AppendList(nil, nil, nil, n)
		if err != nil || len(pairs) != n {
			t.Fatalf("%s: AppendList = %d pairs, %v", backend, len(pairs), err)
		}
		if pairs, _, err = db.AppendList(pairs, buf, key(n/2), n); err != nil || len(pairs) != n+n/2 {
			t.Fatalf("%s: second AppendList = %d pairs in all, %v", backend, len(pairs), err)
		}
		if !bytes.Equal(pairs[n].Key, key(n/2)) {
			t.Fatalf("%s: second listing starts at %q", backend, pairs[n].Key)
		}
		pairs = pairs[:n]
		for i := 0; i < n; i++ {
			db.Put(key(i), []byte("overwritten"))
		}
		first := append(pairs[0].Key, "-and-then-some"...)
		_ = append(pairs[0].Value, "-and-then-some"...)
		for i, p := range pairs {
			if want := fmt.Sprintf("value-%04d", i); !bytes.Equal(p.Key, key(i)) || string(p.Value) != want {
				t.Fatalf("%s: pair %d = %q=%q after overwriting the store and appending to pair 0", backend, i, p.Key, p.Value)
			}
			if cap(p.Key) != len(p.Key) || cap(p.Value) != len(p.Value) {
				t.Fatalf("%s: pair %d is not capacity-clipped (%d/%d, %d/%d)", backend, i, len(p.Key), cap(p.Key), len(p.Value), cap(p.Value))
			}
		}
		if !bytes.HasSuffix(first, []byte("-and-then-some")) {
			t.Fatalf("%s: append lost its bytes", backend)
		}
		pairs[1].Value[0] = 'X'
		if v, _, _ := db.Get(key(1)); string(v) != "overwritten" {
			t.Fatalf("%s: writing through a listed value reached the store: %q", backend, v)
		}
	}
}
