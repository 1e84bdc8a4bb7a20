package kv

import "sort"

// Ring is a rendezvous-hash (highest-random-weight) routing table over
// a set of KV nodes. Every party that holds the same member set — the
// nodes themselves and every client — independently computes the same
// owner for a key, with no coordination and no token metadata to ship
// around. Rendezvous hashing is minimally disruptive under churn: when
// a node joins, only the keys it now wins move (≤ ~K/N of them); when a
// node leaves, only its own keys redistribute — the property the
// elastic sdskv migration plane and TestRingMinimalDisruption rely on.
//
// A Ring is immutable once built; routing under churn swaps whole rings
// (built from versioned ssg views), never mutates one in place.
type Ring struct {
	version uint64
	members []string // sorted
	seeds   []uint64 // precomputed per-member hash seed, same order
}

// NewRing builds a ring over the member addresses at a view version.
// The input slice is copied; order does not matter.
func NewRing(version uint64, members []string) *Ring {
	ms := append([]string{}, members...)
	sort.Strings(ms)
	r := &Ring{version: version, members: ms, seeds: make([]uint64, len(ms))}
	for i, m := range ms {
		r.seeds[i] = fnv64a(m)
	}
	return r
}

// Version is the membership-view version this ring was built from.
func (r *Ring) Version() uint64 { return r.version }

// Size returns the member count.
func (r *Ring) Size() int { return len(r.members) }

// Members returns the sorted member list. Read-only: the slice is the
// ring's own immutable backing store.
func (r *Ring) Members() []string { return r.members }

// Has reports whether addr is a ring member.
func (r *Ring) Has(addr string) bool {
	i := sort.SearchStrings(r.members, addr)
	return i < len(r.members) && r.members[i] == addr
}

// Owner returns the member that owns key, or "" for an empty ring.
// Zero allocations: this sits on the routing hot path of every client
// op and every server-side ownership check.
func (r *Ring) Owner(key []byte) string {
	i := r.ownerIndex(key)
	if i < 0 {
		return ""
	}
	return r.members[i]
}

// ownerIndex returns the owning member's index, or -1 for an empty
// ring.
func (r *Ring) ownerIndex(key []byte) int {
	if len(r.members) == 0 {
		return -1
	}
	// FNV-1a over the key once, then mix with each member's
	// precomputed seed: score(m, k) = mix(seed(m) ^ hash(k)).
	var kh uint64 = 1469598103934665603
	for _, b := range key {
		kh ^= uint64(b)
		kh *= 1099511628211
	}
	best, bestScore := 0, mix64(r.seeds[0]^kh)
	for i := 1; i < len(r.seeds); i++ {
		if s := mix64(r.seeds[i] ^ kh); s > bestScore ||
			(s == bestScore && r.members[i] < r.members[best]) {
			best, bestScore = i, s
		}
	}
	return best
}

// fnv64a hashes a string with FNV-1a.
func fnv64a(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the SplitMix64 finalizer: breaks up FNV's weak low-bit
// avalanche so per-member scores are independent.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
