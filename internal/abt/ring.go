package abt

import "sync/atomic"

// ringSize is each XStream's per-pool local deque capacity. Power of two.
const ringSize = 256

// ring is a bounded single-producer multi-consumer FIFO of ready ULTs —
// one per (XStream, Pool) edge. The owning stream pushes at the tail
// (refills from the shared inject queue, local yield requeues); the owner
// and thieves alike consume from the head by CAS, so steals preserve the
// global oldest-first order that pool FIFO semantics promise.
//
// Correctness of pop: a consumer reads head, observes tail > head, reads
// the slot, then CASes head forward. head is monotonic, and the owner
// only overwrites a slot one full lap later — after head has advanced
// past it — so a successful CAS proves the value read was the current
// lap's. Consumed slots are deliberately not cleared: a consumer writing
// nil could clobber the owner's refill of the same slot. Each slot thus
// retains at most one stale *ULT until overwritten, which is fine because
// detached ULT structs are pooled anyway.
type ring struct {
	head  atomic.Uint64 // next index to consume (owner or thief, CAS)
	tail  atomic.Uint64 // next index to fill (owner only)
	slots [ringSize]atomic.Pointer[ULT]
}

// free reports remaining capacity as seen by the owner. Concurrent pops
// only grow it, so a push based on a stale value is always safe.
func (r *ring) free() int { return ringSize - int(r.tail.Load()-r.head.Load()) }

// push appends u at the tail. Owner only. Reports false when full.
func (r *ring) push(u *ULT) bool {
	t := r.tail.Load()
	if t-r.head.Load() >= ringSize {
		return false
	}
	r.slots[t&(ringSize-1)].Store(u)
	r.tail.Store(t + 1)
	return true
}

// pop removes and returns the oldest entry, or nil when empty. Safe from
// any goroutine.
func (r *ring) pop() *ULT {
	for {
		h := r.head.Load()
		if h == r.tail.Load() {
			return nil
		}
		u := r.slots[h&(ringSize-1)].Load()
		if r.head.CompareAndSwap(h, h+1) {
			return u
		}
	}
}
