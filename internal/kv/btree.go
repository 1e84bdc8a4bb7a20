package kv

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// fanout is the most keys a node holds (an inner node has one child more)
// before it is split on the way down.
const fanout = 32

// chunkSize is the size of one chunk of the chunk table. At the HEPnOS
// pair size (≈ 580 B) a chunk holds 28 pairs, and a store that stops
// part-way through one wastes at most this much per database — 32
// databases per server make that 512 KiB at worst, which is why it is not
// larger.
const chunkSize = 16 << 10

// own marks a ref whose chunk-table slot holds that pair alone.
const own = 1 << 31

// ref locates a stored pair, key then value, at off in chunk-table slot
// chunk. The value may be rewritten in place up to vcap bytes.
type ref struct{ chunk, off, klen, vlen, vcap uint32 }

// keyIndex is what a node searches: n sorted keys, each abbreviated to
// its first 8 bytes as it enters the node. A split copies the
// abbreviations along with the keys. Keys that share their first 8 bytes
// (HEPnOS event keys, zero-padded numbers) tie, and a search reads them.
type keyIndex struct {
	n    uint32
	abbr [fanout]uint64
}

// leaf holds up to fanout pairs by ref. It holds no pointer, so the
// collector never scans it and shifting its entries is a plain memmove.
type leaf struct {
	keyIndex
	ents [fanout]ref
}

// inner routes a key to child i where keys[i-1] <= key < keys[i]. Its
// separators are copies it owns, and its children are inner nodes above
// the bottom inner level and leaves on it.
type inner struct {
	keyIndex
	keys   [fanout][]byte
	kids   [fanout + 1]*inner
	leaves [fanout + 1]*leaf
}

// btree is an in-memory B+-tree keyed by byte slices. A new pair is
// copied once, key and value side by side, into the tree's chunk table,
// so callers may reuse their buffers; get and scan hand out views of the
// stored bytes, which an overwrite may rewrite in place.
//
// The chunk table holds 16 KiB append-only chunks, filled in turn, and
// one slot of its own for each pair larger than a quarter chunk and each
// value that outgrew its range. The next growth of such a value replaces
// its slot, and a delete clears it.
type btree struct {
	root   *inner
	height int // inner levels: the root's children are leaves at height 1
	size   int
	dead   int // pairs deleted or outgrown since the tree was built (see reclaim)
	chunks [][]byte
	cur    uint32 // the chunk being filled
	fill   int    // its bytes in use
}

func newBTree() *btree {
	// A fill past the end opens a chunk for the first pair stored in one,
	// even an empty one.
	return &btree{root: &inner{leaves: [fanout + 1]*leaf{new(leaf)}}, height: 1, fill: chunkSize + 1}
}

// abbrev is key's first 8 bytes, big-endian and zero-padded. A smaller
// abbreviation means a smaller key; equal ones need the keys compared.
func abbrev(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.BigEndian.Uint64(key)
	}
	var b [8]byte
	copy(b[:], key)
	return binary.BigEndian.Uint64(b[:])
}

// search returns the first index whose key is >= key, and whether that
// key is key. keyAt(i) is read only when entry i's abbreviation ties with
// key's.
func (x *keyIndex) search(key []byte, keyAt func(int) []byte) (int, bool) {
	a := abbrev(key)
	lo, hi := 0, int(x.n)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c := cmp.Compare(x.abbr[mid], a)
		if c == 0 {
			if c = bytes.Compare(keyAt(mid), key); c == 0 {
				return mid, true
			}
		}
		if c < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, false
}

func (n *inner) keyAt(i int) []byte { return n.keys[i] }

// route returns the child whose range holds key.
func (n *inner) route(key []byte) int {
	i, eq := n.search(key, n.keyAt)
	if eq {
		i++
	}
	return i
}

func (t *btree) key(r ref) []byte { return t.chunks[r.chunk&^own][r.off : r.off+r.klen] }

func (t *btree) val(r ref) []byte {
	at := r.off + r.klen
	return t.chunks[r.chunk&^own][at : at+r.vlen]
}

func (t *btree) leafKey(l *leaf) func(int) []byte {
	return func(i int) []byte { return t.key(l.ents[i]) }
}

// alloc reserves n bytes for a new pair: the next n of the chunk being
// filled, or a slot of its own when n is over a quarter chunk, which
// bounds the tail a chunk can waste to a quarter of it.
func (t *btree) alloc(n int) (chunk, off uint32) {
	if n > chunkSize/4 {
		return t.ownSlot(make([]byte, n)), 0
	}
	if t.fill+n > chunkSize {
		t.chunks = append(t.chunks, make([]byte, chunkSize))
		t.cur, t.fill = uint32(len(t.chunks)-1), 0
	}
	off = uint32(t.fill)
	t.fill += n
	return t.cur, off
}

func (t *btree) ownSlot(b []byte) uint32 {
	t.chunks = append(t.chunks, b)
	return uint32(len(t.chunks)-1) | own
}

// leafFor descends to the leaf whose range holds key.
func (t *btree) leafFor(key []byte) *leaf {
	n := t.root
	for h := t.height; h > 1; h-- {
		n = n.kids[n.route(key)]
	}
	return n.leaves[n.route(key)]
}

// get returns a view of the value stored under key.
func (t *btree) get(key []byte) ([]byte, bool) {
	l := t.leafFor(key)
	if i, eq := l.search(key, t.leafKey(l)); eq {
		return t.val(l.ents[i]), true
	}
	return nil, false
}

// put inserts or replaces, reporting whether a new key was added. Full
// nodes are split on the way down, so a single downward pass suffices.
func (t *btree) put(key, value []byte) bool {
	if t.root.n == fanout {
		t.root = &inner{kids: [fanout + 1]*inner{t.root}}
		t.height++
	}
	n := t.root
	for h := t.height; ; {
		i := n.route(key)
		if h == 1 && n.leaves[i].n == fanout || h > 1 && n.kids[i].n == fanout {
			t.splitChild(n, i, h == 1)
			continue
		}
		if h > 1 {
			n, h = n.kids[i], h-1
			continue
		}
		added := t.putLeaf(n.leaves[i], key, value)
		if added {
			t.size++
		}
		t.reclaim()
		return added
	}
}

// putLeaf stores key/value in l. An overwrite keeps the stored key and
// rewrites the value in place when it fits.
func (t *btree) putLeaf(l *leaf, key, value []byte) bool {
	i, eq := l.search(key, t.leafKey(l))
	if eq {
		r := &l.ents[i]
		if len(value) > int(r.vcap) {
			// An object of its own, replaced by the next growth: a value
			// that keeps growing abandons only the range it was first
			// stored in.
			b := make([]byte, int(r.klen)+len(value))
			copy(b, t.key(*r))
			if r.chunk&own != 0 {
				t.chunks[r.chunk&^own] = b
			} else {
				r.chunk = t.ownSlot(b)
				t.dead++
			}
			r.off, r.vcap = 0, uint32(len(value))
		}
		r.vlen = uint32(len(value))
		copy(t.val(*r), value)
		return false
	}
	c, off := t.alloc(len(key) + len(value))
	copy(t.chunks[c&^own][off:], key)
	copy(t.chunks[c&^own][int(off)+len(key):], value)
	copy(l.ents[i+1:l.n+1], l.ents[i:l.n])
	copy(l.abbr[i+1:l.n+1], l.abbr[i:l.n])
	l.ents[i] = ref{c, off, uint32(len(key)), uint32(len(value)), uint32(len(value))}
	l.abbr[i] = abbrev(key)
	l.n++
	return true
}

// splitChild moves the upper half of n's full child i into a new right
// sibling, and adds the separator between them to n. A leaf's middle key
// stays in the right half (B+-tree style) and its copy moves up; an inner
// node's middle key itself moves up.
func (t *btree) splitChild(n *inner, i int, leafLevel bool) {
	const m = fanout / 2
	var mid []byte
	var midAbbr uint64
	if leafLevel {
		l, r := n.leaves[i], new(leaf)
		mid, midAbbr = bytes.Clone(t.key(l.ents[m])), l.abbr[m]
		r.n = uint32(copy(r.ents[:], l.ents[m:l.n]))
		copy(r.abbr[:], l.abbr[m:l.n])
		l.n = m
		copy(n.leaves[i+2:n.n+2], n.leaves[i+1:n.n+1])
		n.leaves[i+1] = r
	} else {
		c, r := n.kids[i], new(inner)
		mid, midAbbr = c.keys[m], c.abbr[m]
		r.n = uint32(copy(r.keys[:], c.keys[m+1:c.n]))
		copy(r.abbr[:], c.abbr[m+1:c.n])
		copy(r.kids[:], c.kids[m+1:c.n+1])
		copy(r.leaves[:], c.leaves[m+1:c.n+1])
		clear(c.keys[m:])
		clear(c.kids[m+1:])
		clear(c.leaves[m+1:])
		c.n = m
		copy(n.kids[i+2:n.n+2], n.kids[i+1:n.n+1])
		n.kids[i+1] = r
	}
	copy(n.keys[i+1:n.n+1], n.keys[i:n.n])
	copy(n.abbr[i+1:n.n+1], n.abbr[i:n.n])
	n.keys[i], n.abbr[i] = mid, midAbbr
	n.n++
}

// reclaimMin is the fewest dead pairs worth a rebuild.
const reclaimMin = 64

// reclaim rebuilds the tree once it holds more dead pairs than live
// ones. Chunk ranges are never reused and delete never rebalances, so a
// deleted or outgrown pair's bytes stay pinned while a surviving pair
// shares their chunk; copying the survivors into a fresh tree and chunk
// table drops all of that at once, for a cost per delete that is
// amortised constant.
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

// delete removes key, reporting whether it was present. Nodes are not
// rebalanced on delete (lookups remain correct, only density degrades);
// reclaim rebuilds the tree when most of it is gone.
func (t *btree) delete(key []byte) bool {
	l := t.leafFor(key)
	i, eq := l.search(key, t.leafKey(l))
	if !eq {
		return false
	}
	if c := l.ents[i].chunk; c&own != 0 {
		t.chunks[c&^own] = nil
	}
	copy(l.ents[i:], l.ents[i+1:l.n])
	copy(l.abbr[i:], l.abbr[i+1:l.n])
	l.n--
	t.size--
	t.dead++
	t.reclaim()
	return true
}

// scan visits pairs with key >= start in order until fn returns false.
func (t *btree) scan(start []byte, fn func(k, v []byte) bool) {
	t.scanNode(t.root, t.height, start, fn)
}

// scanNode visits n's subtree from start; the children after the one
// start routes to are visited whole (start lies below all their keys).
func (t *btree) scanNode(n *inner, h int, start []byte, fn func(k, v []byte) bool) bool {
	i := 0
	if len(start) > 0 {
		i = n.route(start)
	}
	for ; i <= int(n.n); i++ {
		if h > 1 {
			if !t.scanNode(n.kids[i], h-1, start, fn) {
				return false
			}
		} else {
			l, j := n.leaves[i], 0
			if len(start) > 0 {
				j, _ = l.search(start, t.leafKey(l))
			}
			for ; j < int(l.n); j++ {
				if !fn(t.key(l.ents[j]), t.val(l.ents[j])) {
					return false
				}
			}
		}
		start = nil
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
func (d *btreeDB) ConcurrentWrites() bool { return false }

func (d *btreeDB) Put(key, value []byte) error {
	if uint64(len(key))+uint64(len(value)) > math.MaxUint32 {
		return fmt.Errorf("kv: a %d-byte pair is over the map backend's 4 GiB limit", len(key)+len(value))
	}
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
