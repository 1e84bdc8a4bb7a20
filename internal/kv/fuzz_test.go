package kv

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzMapBackend decodes the fuzz bytes into operations on one "map"
// database and checks each against a sorted model, then the whole
// listing, Len, and the tree's layout (checkLayout). The bytes are a
// run of ops, each an opcode byte (taken mod 6) and its operands:
//
//	0 n k…          the current key becomes the next n%80 bytes
//	1 s s           Put(key, a fresh value of ss%(chunkSize/2) bytes)
//	2               Delete(key)
//	3               AppendGet behind a 3-byte prefix
//	4 m             AppendList from key, at most m pairs
//	5 c c p z       fill or drop: for j < cc in steps of p%8+1, Put the
//	                key followed by j as 4 big-endian bytes, with a
//	                z*4-byte value, when z is odd, else Delete it
//
// A run stops after 32,768 puts and deletes. Seeds, in
// testdata/fuzz/FuzzMapBackend: HEPnOS-shaped keys; keys whose
// abbreviations tie and that differ later; keys that are prefixes of
// each other; trailing 0x00 bytes (the zero-padding tie); the empty key;
// values over a quarter chunk; values grown past their capacity; keys
// below and above a sequential fill; and a fill that reaches height 3,
// then a drop that triggers reclaim.
func FuzzMapBackend(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m := &mapModel{db: newBTreeDB("fuzz"), vals: map[string]string{}}
		next := func(n int) []byte {
			b := data[:min(n, len(data))]
			data = data[len(b):]
			return b
		}
		num := func(n int) int {
			v := 0
			for _, c := range next(n) {
				v = v<<8 | int(c)
			}
			return v
		}
		var key []byte
		for budget := 1 << 15; len(data) > 0 && budget > 0; {
			switch next(1)[0] % 6 {
			case 0:
				key = append(key[:0], next(num(1)%80)...)
			case 1:
				m.put(t, key, num(2)%(chunkSize/2))
				budget--
			case 2:
				m.delete(t, key)
				budget--
			case 3:
				m.get(t, key)
			case 4:
				m.list(t, key, num(1))
			case 5:
				count, step, z := num(2), num(1)%8+1, num(1)
				for j := 0; j < count && budget > 0; j += step {
					k := binary.BigEndian.AppendUint32(slices.Clip(key), uint32(j))
					if z%2 == 1 {
						m.put(t, k, z*4)
					} else {
						m.delete(t, k)
					}
					budget--
				}
			}
		}
		m.list(t, nil, len(m.keys)+1)
		if m.db.Len() != len(m.keys) {
			t.Fatalf("Len = %d, model %d", m.db.Len(), len(m.keys))
		}
		checkLayout(t, m.db.t)
	})
}

// mapModel is what a "map" database should hold: its keys in order and
// their values.
type mapModel struct {
	db   *btreeDB
	keys []string
	vals map[string]string
	seq  int
	vbuf []byte
}

func (m *mapModel) put(t *testing.T, key []byte, size int) {
	m.seq++
	m.vbuf = m.vbuf[:0]
	for i := 0; i < size; i++ {
		m.vbuf = append(m.vbuf, byte(m.seq+i))
	}
	if err := m.db.Put(key, m.vbuf); err != nil {
		t.Fatal(err)
	}
	if i, found := slices.BinarySearch(m.keys, string(key)); !found {
		m.keys = slices.Insert(m.keys, i, string(key))
	}
	m.vals[string(key)] = string(m.vbuf)
}

func (m *mapModel) delete(t *testing.T, key []byte) {
	i, found := slices.BinarySearch(m.keys, string(key))
	was, err := m.db.Delete(key)
	if err != nil || was != found {
		t.Fatalf("Delete(%q) = %v, %v; model %v", key, was, err, found)
	}
	if found {
		m.keys = slices.Delete(m.keys, i, i+1)
		delete(m.vals, string(key))
	}
}

func (m *mapModel) get(t *testing.T, key []byte) {
	want, found := m.vals[string(key)]
	got, ok, err := m.db.AppendGet([]byte("dst"), key)
	if err != nil || ok != found || string(got) != "dst"+want {
		t.Fatalf("AppendGet(%q) = %d bytes, %v, %v; model %d bytes, %v", key, len(got), ok, err, len(want), found)
	}
}

func (m *mapModel) list(t *testing.T, start []byte, max int) {
	i, _ := slices.BinarySearch(m.keys, string(start))
	want := m.keys[i:min(i+max, len(m.keys))]
	pairs, _, err := m.db.AppendList(nil, nil, start, max)
	if err != nil || len(pairs) != len(want) {
		t.Fatalf("AppendList(%q, %d) = %d pairs, %v; model %d", start, max, len(pairs), err, len(want))
	}
	for j, p := range pairs {
		if string(p.Key) != want[j] || string(p.Value) != m.vals[want[j]] {
			t.Fatalf("AppendList(%q, %d)[%d] = %q (%d bytes), model %q (%d bytes)", start, max, j, p.Key, len(p.Value), want[j], len(m.vals[want[j]]))
		}
	}
}

// checkLayout walks the tree with each node's fences (the separators
// bounding it, nil on the tree's edges) and fails unless every node's
// keys are sorted and inside its fences, every cached abbreviation is its
// key's, and every leaf sits at the same depth.
func checkLayout(t *testing.T, tr *btree) {
	t.Helper()
	check := func(x *keyIndex, lo, hi []byte, keyAt func(int) []byte) {
		for i := range int(x.n) {
			k := keyAt(i)
			switch {
			case lo != nil && bytes.Compare(k, lo) < 0, hi != nil && bytes.Compare(k, hi) >= 0:
				t.Fatalf("key %q lies outside its node's fences %q and %q", k, lo, hi)
			case i > 0 && bytes.Compare(keyAt(i-1), k) >= 0:
				t.Fatalf("key %q follows %q", k, keyAt(i-1))
			case x.abbr[i] != abbrev(k):
				t.Fatalf("key %q is abbreviated %#x, want %#x", k, x.abbr[i], abbrev(k))
			}
		}
	}
	var walk func(n *inner, h int, lo, hi []byte)
	walk = func(n *inner, h int, lo, hi []byte) {
		check(&n.keyIndex, lo, hi, n.keyAt)
		for i := range int(n.n) + 1 {
			clo, chi := lo, hi
			if i > 0 {
				clo = n.keys[i-1]
			}
			if i < int(n.n) {
				chi = n.keys[i]
			}
			switch {
			case h > 1 && n.kids[i] != nil && n.leaves[i] == nil:
				walk(n.kids[i], h-1, clo, chi)
			case h == 1 && n.leaves[i] != nil && n.kids[i] == nil:
				check(&n.leaves[i].keyIndex, clo, chi, tr.leafKey(n.leaves[i]))
			default:
				t.Fatalf("child %d of a node at height %d is not one node of the level below", i, h)
			}
		}
	}
	walk(tr.root, tr.height, nil, nil)
}
