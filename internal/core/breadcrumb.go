// Package core implements the SYMBIOSYS measurement model: distributed
// callpath breadcrumbs, the per-process measurement store (Profiler)
// holding callpath profiles and request traces, Lamport clocks,
// measurement stages, and the serialized profile/trace formats consumed
// by the analysis tools. It is the
// paper's primary contribution (§IV); the margo package hosts it at the
// RPC instrumentation points t1…t14.
package core

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
)

// Breadcrumb is the 64-bit RPC callpath ancestry of the paper (§IV-A1):
// each hop contributes the 16-bit hash of its RPC name, with deeper
// calls occupying lower bits. Pushing a fifth hop shifts the oldest one
// out, bounding the encoded depth at four exactly as in Margo.
type Breadcrumb uint64

// MaxDepth is the number of hops a breadcrumb can encode.
const MaxDepth = 4

// Hash16 folds an RPC name to the 16-bit hop hash used in breadcrumbs.
func Hash16(name string) uint16 {
	h := fnv.New32a()
	h.Write([]byte(name))
	s := h.Sum32()
	v := uint16(s>>16) ^ uint16(s)
	if v == 0 {
		// Zero hops read as "absent"; remap.
		v = 1
	}
	return v
}

// Push extends the callpath with a downstream RPC: a 16-bit left shift
// followed by OR-ing the new hop into the low bits (paper §IV-A1).
func (b Breadcrumb) Push(rpcName string) Breadcrumb {
	return b<<16 | Breadcrumb(Hash16(rpcName))
}

// Depth reports how many hops the breadcrumb encodes (0 to MaxDepth).
func (b Breadcrumb) Depth() int {
	d := 0
	for v := b; v != 0; v >>= 16 {
		d++
	}
	return d
}

// Hops returns the hop hashes from root to leaf.
func (b Breadcrumb) Hops() []uint16 {
	d := b.Depth()
	hops := make([]uint16, d)
	for i := d - 1; i >= 0; i-- {
		hops[i] = uint16(b)
		b >>= 16
	}
	return hops
}

// Parent returns the breadcrumb with the leaf hop removed.
func (b Breadcrumb) Parent() Breadcrumb { return b >> 16 }

// String formats the breadcrumb as hex.
func (b Breadcrumb) String() string { return fmt.Sprintf("%#x", uint64(b)) }

// NameRegistry maps 16-bit hop hashes back to RPC names so profiles can
// print human-readable callpaths, and detects hash collisions between
// distinct registered names.
type NameRegistry struct {
	mu    sync.RWMutex
	names map[uint16]string
}

// NewNameRegistry returns an empty registry.
func NewNameRegistry() *NameRegistry {
	return &NameRegistry{names: make(map[uint16]string)}
}

// Register records an RPC name, returning its hop hash. Registering two
// distinct names with colliding hashes returns an error (the profile
// would otherwise attribute time to the wrong callpath).
func (r *NameRegistry) Register(name string) (uint16, error) {
	h := Hash16(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.names[h]; ok && old != name {
		return h, fmt.Errorf("core: breadcrumb hash collision: %q vs %q", name, old)
	}
	r.names[h] = name
	return h, nil
}

// Name resolves a hop hash.
func (r *NameRegistry) Name(h uint16) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n, ok := r.names[h]
	return n, ok
}

// Names returns a copy of the full hash→name table.
func (r *NameRegistry) Names() map[uint16]string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[uint16]string, len(r.names))
	for k, v := range r.names {
		out[k] = v
	}
	return out
}

// Format renders a breadcrumb as "a => b => c", substituting the hex
// hash for unknown hops.
func (r *NameRegistry) Format(b Breadcrumb) string {
	hops := b.Hops()
	if len(hops) == 0 {
		return "(root)"
	}
	parts := make([]string, len(hops))
	for i, h := range hops {
		if n, ok := r.Name(h); ok {
			parts[i] = n
		} else {
			parts[i] = fmt.Sprintf("%#04x", h)
		}
	}
	return strings.Join(parts, " => ")
}

// FormatTable renders a breadcrumb using a plain hash→name map (the
// deserialized form used by offline analysis).
func FormatTable(names map[uint16]string, b Breadcrumb) string {
	hops := b.Hops()
	if len(hops) == 0 {
		return "(root)"
	}
	parts := make([]string, len(hops))
	for i, h := range hops {
		if n, ok := names[h]; ok {
			parts[i] = n
		} else {
			parts[i] = fmt.Sprintf("%#04x", h)
		}
	}
	return strings.Join(parts, " => ")
}
