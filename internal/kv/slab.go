package kv

// slabChunk is the size of one slab chunk. At the HEPnOS pair size
// (≈ 580 B) a chunk holds 28 pairs, and a store that stops part-way
// through one wastes at most this much per database — 32 databases per
// server make that 512 KiB at worst, which is why it is not larger.
const slabChunk = 16 << 10

// slab hands out byte ranges of append-only chunks, so stored pairs cost
// one pointer-free heap object per chunk instead of two per pair. Ranges
// are never reused: what a delete or a growing overwrite leaves behind
// stays pinned while anything points into its chunk, which is why the
// tree rebuilds itself into a fresh slab once most of its pairs are dead
// (btree.reclaim).
type slab struct {
	cur []byte
}

// alloc returns n writable bytes, capacity-clipped to n. A request
// larger than a quarter chunk gets an allocation of its own, which
// bounds the tail a chunk can waste to a quarter of it.
func (s *slab) alloc(n int) []byte {
	if n > slabChunk/4 {
		return make([]byte, n)
	}
	if cap(s.cur)-len(s.cur) < n {
		s.cur = make([]byte, 0, slabChunk)
	}
	off := len(s.cur)
	s.cur = s.cur[:off+n]
	return s.cur[off : off+n : off+n]
}
