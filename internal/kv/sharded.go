package kv

import (
	"slices"
	"sort"
	"sync"
)

// shardedDB is a hash map partitioned across independently locked
// shards, so concurrent Put calls on different keys proceed in parallel.
// Listing is supported but requires a full sort, making it best for
// point workloads. It is the "parallel insertion capable" counterpoint
// to the map backend in the Figure 10 ablation.
type shardedDB struct {
	name   string
	shards [numShards]shard
	closed sync.Once
	dead   bool
	mu     sync.RWMutex // guards dead only

	listMu sync.Mutex
	keys   []string // AppendList's scratch, reused under listMu
}

const numShards = 16

type shard struct {
	mu sync.RWMutex
	m  map[string][]byte
}

func newShardedDB(name string) *shardedDB {
	d := &shardedDB{name: name}
	for i := range d.shards {
		d.shards[i].m = make(map[string][]byte)
	}
	return d
}
func (d *shardedDB) ConcurrentWrites() bool { return true }

// shardFor maps a key to its shard with an inlined FNV-1a loop: this is
// on every Put/Get/Delete, and a hash.Hash32 allocated per call was the
// dominant allocation of the hot path (pinned at zero allocs by
// TestShardForZeroAlloc).
func (d *shardedDB) shardFor(key []byte) *shard { return &d.shards[shardIndex(key)] }

// shardIndex hashes a key held as bytes or, in List, as a map key.
func shardIndex[T ~string | ~[]byte](key T) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h % numShards
}

func (d *shardedDB) isClosed() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.dead
}

func (d *shardedDB) Put(key, value []byte) error {
	if d.isClosed() {
		return ErrClosed
	}
	s := d.shardFor(key)
	s.mu.Lock()
	s.m[string(key)] = append([]byte(nil), value...)
	s.mu.Unlock()
	return nil
}

func (d *shardedDB) Get(key []byte) ([]byte, bool, error) { return d.AppendGet(nil, key) }

func (d *shardedDB) AppendGet(dst, key []byte) ([]byte, bool, error) {
	if d.isClosed() {
		return dst, false, ErrClosed
	}
	s := d.shardFor(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.m[string(key)]
	if !ok {
		return dst, false, nil
	}
	return append(dst, v...), true, nil
}

func (d *shardedDB) Delete(key []byte) (bool, error) {
	if d.isClosed() {
		return false, ErrClosed
	}
	s := d.shardFor(key)
	s.mu.Lock()
	_, ok := s.m[string(key)]
	delete(s.m, string(key))
	s.mu.Unlock()
	return ok, nil
}

func (d *shardedDB) AppendList(pairs []Pair, buf, start []byte, max int) ([]Pair, []byte, error) {
	if d.isClosed() {
		return pairs, buf, ErrClosed
	}
	if max <= 0 {
		return pairs, buf, nil
	}
	// The key scratch outlives the call, so a list into sized buffers
	// allocates nothing; it is cleared on the way out so that it pins no
	// deleted key.
	d.listMu.Lock()
	defer d.listMu.Unlock()
	all := d.keys[:0]
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.RLock()
		for k := range s.m {
			if k >= string(start) {
				all = append(all, k)
			}
		}
		s.mu.RUnlock()
	}
	defer func() { clear(all); d.keys = all[:0] }()
	sort.Strings(all)
	keys := all[:min(len(all), max)]
	// Collect the stored values (a value is replaced, never written, so
	// it stays readable after its shard lock is dropped), then copy keys
	// and values into buf.
	first, size, n := len(pairs), 0, 0
	for _, k := range keys {
		s := &d.shards[shardIndex(k)]
		s.mu.RLock()
		v, ok := s.m[k]
		s.mu.RUnlock()
		if ok {
			keys[n] = k // keys[i] stays the key of the i-th new pair if one vanished meanwhile
			n++
			pairs = append(pairs, Pair{Value: v})
			size += len(k) + len(v)
		}
	}
	buf = slices.Grow(buf, size)
	for i := range pairs[first:] {
		p := &pairs[first+i]
		*p = Pair{Key: carve(&buf, keys[i]), Value: carve(&buf, p.Value)}
	}
	return pairs, buf, nil
}

func (d *shardedDB) Len() int {
	n := 0
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

func (d *shardedDB) Close() error {
	d.mu.Lock()
	d.dead = true
	d.mu.Unlock()
	return nil
}
