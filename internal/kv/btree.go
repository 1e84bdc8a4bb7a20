package kv

import (
	"bytes"
	"sync"
)

// btree is an in-memory B-tree keyed by byte slices. Fan-out is fixed.
// A new pair is copied once, key and value side by side, into the
// tree's slab, so callers may reuse their buffers; get and scan hand out
// the stored bytes themselves, which an overwrite may rewrite in place.
type btree struct {
	root  *bnode
	size  int
	order int // max children per internal node
	slab  slab
	dead  int // pairs deleted or outgrown since the tree was built (see reclaim)
}

type bnode struct {
	// keys[i] separates children[i] (< keys[i]) from children[i+1].
	// Leaves have no children; keys and vals align.
	keys     [][]byte
	vals     [][]byte // leaves only
	children []*bnode
}

func (n *bnode) leaf() bool { return len(n.children) == 0 }

const defaultOrder = 32

func newBTree() *btree {
	return &btree{root: &bnode{}, order: defaultOrder}
}

// maxKeys is the split threshold for both leaves and internal nodes.
func (t *btree) maxKeys() int { return t.order - 1 }

// get returns the value for key.
func (t *btree) get(key []byte) ([]byte, bool) {
	n := t.root
	for {
		idx, eq := n.search(key)
		if n.leaf() {
			if eq {
				return n.vals[idx], true
			}
			return nil, false
		}
		if eq {
			idx++ // equal separator: key lives in the right subtree
		}
		n = n.children[idx]
	}
}

// search finds the first index with keys[idx] >= key; eq reports an
// exact match at idx.
func (n *bnode) search(key []byte) (idx int, eq bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	eq = lo < len(n.keys) && bytes.Equal(n.keys[lo], key)
	return lo, eq
}

// put inserts or replaces, reporting whether a new key was added.
func (t *btree) put(key, value []byte) bool {
	if len(t.root.keys) > t.maxKeys() {
		t.growRoot()
	}
	added := t.insert(t.root, key, value)
	if len(t.root.keys) > t.maxKeys() {
		t.growRoot()
	}
	if added {
		t.size++
	}
	t.reclaim()
	return added
}

// reclaimMin is the fewest dead pairs worth a rebuild.
const reclaimMin = 64

// reclaim rebuilds the tree once it holds more dead pairs than live
// ones. Slab ranges are never reused and delete never rebalances, so a
// deleted pair's bytes stay pinned while anything else — a surviving
// pair, a separator, a leaf's spare slot — points into its chunk;
// copying the survivors into a fresh tree and slab drops all of that at
// once, for a cost per delete that is amortised constant.
func (t *btree) reclaim() {
	if t.dead < reclaimMin || t.dead <= t.size {
		return
	}
	fresh := newBTree()
	t.scan(nil, func(k, v []byte) bool {
		fresh.put(k, v)
		return true
	})
	*t = *fresh
}

// growRoot splits an overfull root, raising the tree height.
func (t *btree) growRoot() {
	old := t.root
	mid, left, right := split(old)
	t.root = &bnode{
		keys:     [][]byte{mid},
		children: []*bnode{left, right},
	}
}

// split divides an overfull node into two halves around its middle key.
// For leaves the middle key stays in the right half (B+-tree style, so
// its value is not lost); for internal nodes it moves up.
func split(n *bnode) (mid []byte, left, right *bnode) {
	m := len(n.keys) / 2
	mid = n.keys[m]
	if n.leaf() {
		left = &bnode{
			keys: append([][]byte(nil), n.keys[:m]...),
			vals: append([][]byte(nil), n.vals[:m]...),
		}
		right = &bnode{
			keys: append([][]byte(nil), n.keys[m:]...),
			vals: append([][]byte(nil), n.vals[m:]...),
		}
		return mid, left, right
	}
	left = &bnode{
		keys:     append([][]byte(nil), n.keys[:m]...),
		children: append([]*bnode(nil), n.children[:m+1]...),
	}
	right = &bnode{
		keys:     append([][]byte(nil), n.keys[m+1:]...),
		children: append([]*bnode(nil), n.children[m+1:]...),
	}
	return mid, left, right
}

// insert copies key/value into the tree beneath n, splitting children
// preemptively so a single downward pass suffices. An overwrite keeps
// the stored key and reuses the old value's bytes when the new one fits.
func (t *btree) insert(n *bnode, key, value []byte) bool {
	for {
		idx, eq := n.search(key)
		if n.leaf() {
			if eq {
				v := n.vals[idx]
				if cap(v) < len(value) {
					// An object of its own, freed by the next growth: a
					// value that keeps growing abandons only the slab
					// range it was first stored in.
					v = make([]byte, len(value))
					t.dead++
				}
				v = v[:len(value)]
				copy(v, value)
				n.vals[idx] = v
				return false
			}
			kv := t.slab.alloc(len(key) + len(value))
			copy(kv, key)
			copy(kv[len(key):], value)
			n.keys = append(n.keys, nil)
			copy(n.keys[idx+1:], n.keys[idx:])
			n.keys[idx] = kv[:len(key):len(key)]
			n.vals = append(n.vals, nil)
			copy(n.vals[idx+1:], n.vals[idx:])
			n.vals[idx] = kv[len(key):]
			return true
		}
		if eq {
			idx++
		}
		child := n.children[idx]
		if len(child.keys) > t.maxKeys() {
			mid, left, right := split(child)
			n.keys = append(n.keys, nil)
			copy(n.keys[idx+1:], n.keys[idx:])
			n.keys[idx] = mid
			n.children = append(n.children, nil)
			copy(n.children[idx+2:], n.children[idx+1:])
			n.children[idx] = left
			n.children[idx+1] = right
			if bytes.Compare(key, mid) >= 0 {
				idx++
			}
			child = n.children[idx]
		}
		n = child
	}
}

// delete removes key, reporting whether it was present. Nodes are not
// rebalanced on delete (lookups remain correct, only density degrades);
// reclaim rebuilds the tree when most of it is gone.
func (t *btree) delete(key []byte) bool {
	n := t.root
	for {
		idx, eq := n.search(key)
		if n.leaf() {
			if !eq {
				return false
			}
			n.keys = append(n.keys[:idx], n.keys[idx+1:]...)
			n.vals = append(n.vals[:idx], n.vals[idx+1:]...)
			t.size--
			t.dead++
			t.reclaim()
			return true
		}
		if eq {
			idx++
		}
		n = n.children[idx]
	}
}

// scan visits pairs with key >= start in order until fn returns false.
func (t *btree) scan(start []byte, fn func(k, v []byte) bool) {
	t.scanNode(t.root, start, fn)
}

func (t *btree) scanNode(n *bnode, start []byte, fn func(k, v []byte) bool) bool {
	idx, _ := n.search(start)
	if n.leaf() {
		for ; idx < len(n.keys); idx++ {
			if !fn(n.keys[idx], n.vals[idx]) {
				return false
			}
		}
		return true
	}
	for ; idx <= len(n.keys); idx++ {
		if idx < len(n.children) {
			if !t.scanNode(n.children[idx], start, fn) {
				return false
			}
		}
	}
	return true
}

// btreeDB wraps a btree behind the DB interface. It is internally
// thread-safe for Go-level correctness but declares ConcurrentWrites
// false: like std::map in SDSKV, writes are logically serialized (one
// writer makes progress at a time), which the service layer enforces
// with a ULT mutex so the serialization is visible to the tasking layer.
type btreeDB struct {
	name   string
	mu     sync.RWMutex
	t      *btree
	closed bool
}

func newBTreeDB(name string) *btreeDB {
	return &btreeDB{name: name, t: newBTree()}
}

func (d *btreeDB) Name() string           { return d.name }
func (d *btreeDB) Backend() string        { return "map" }
func (d *btreeDB) ConcurrentWrites() bool { return false }

func (d *btreeDB) Put(key, value []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	d.t.put(key, value)
	return nil
}

func (d *btreeDB) Get(key []byte) ([]byte, bool, error) { return d.AppendGet(nil, key) }

func (d *btreeDB) AppendGet(dst, key []byte) ([]byte, bool, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return dst, false, ErrClosed
	}
	v, ok := d.t.get(key)
	if !ok {
		return dst, false, nil
	}
	return append(dst, v...), true, nil
}

func (d *btreeDB) Delete(key []byte) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false, ErrClosed
	}
	return d.t.delete(key), nil
}

func (d *btreeDB) AppendList(pairs []Pair, buf, start []byte, max int) ([]Pair, []byte, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return pairs, buf, ErrClosed
	}
	// Collect views of the stored pairs (stable under the read lock),
	// then copy them all into buf.
	first, size := len(pairs), 0
	d.t.scan(start, func(k, v []byte) bool {
		if len(pairs)-first >= max {
			return false
		}
		pairs = append(pairs, Pair{Key: k, Value: v})
		size += len(k) + len(v)
		return true
	})
	return pairs, carvePairs(pairs[first:], buf, size), nil
}

func (d *btreeDB) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.t.size
}

func (d *btreeDB) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	return nil
}
