package kv

import (
	"fmt"
	"testing"
	"testing/quick"
)

func ringMembers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("node%02d/ekv", i)
	}
	return out
}

func ringKeys(k int) [][]byte {
	out := make([][]byte, k)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("dataset/run%04d/event%06d", i%7, i))
	}
	return out
}

func TestRingDeterministicAndCovering(t *testing.T) {
	r := NewRing(3, ringMembers(5))
	if r.Version() != 3 || r.Size() != 5 {
		t.Fatalf("ring = v%d size %d", r.Version(), r.Size())
	}
	prop := func(key []byte) bool {
		return r.Owner(key) == r.Owner(key) && r.Has(r.Owner(key))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
	hit := map[string]int{}
	for _, k := range ringKeys(4096) {
		hit[r.Owner(k)]++
	}
	if len(hit) != 5 {
		t.Fatalf("owners covered %d of 5 members: %v", len(hit), hit)
	}
	// Rough balance: no member owns more than 2x its fair share.
	for m, n := range hit {
		if n > 2*4096/5 {
			t.Fatalf("member %s owns %d of 4096 keys", m, n)
		}
	}
	// Member order must not matter.
	rev := NewRing(3, []string{"node04/ekv", "node02/ekv", "node00/ekv", "node03/ekv", "node01/ekv"})
	for _, k := range ringKeys(64) {
		if r.Owner(k) != rev.Owner(k) {
			t.Fatalf("owner differs by input order for %q", k)
		}
	}
	empty := NewRing(0, nil)
	if empty.Owner([]byte("x")) != "" || empty.ownerIndex([]byte("x")) != -1 {
		t.Fatal("empty ring returned an owner")
	}
}

// TestRingMinimalDisruption is the satellite property test: rendezvous
// routing moves only the keys it must. For a single join, every moved
// key moves TO the joiner; for a single leave, every moved key moves
// FROM the leaver — keys owned by unaffected members never change
// hands, which is the exact minimal-disruption property. The moved
// count is ceil(K/N) in expectation (it is precisely the affected
// member's holding, a Binomial(K, 1/N)), so the count assertion allows
// the bound a 3-sigma tail on top of ceil(K/N).
func TestRingMinimalDisruption(t *testing.T) {
	const K = 4096
	keys := ringKeys(K)
	for _, n := range []int{4, 8, 15} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			members := ringMembers(n)
			before := NewRing(1, members)

			// Join: add a fresh member.
			joined := NewRing(2, append(append([]string{}, members...), "node99/ekv"))
			moved := 0
			for _, k := range keys {
				ob, oa := before.Owner(k), joined.Owner(k)
				if ob == oa {
					continue
				}
				moved++
				if oa != "node99/ekv" {
					t.Fatalf("join moved %q from %s to %s (not the joiner)", k, ob, oa)
				}
			}
			fair := (K + n - 1) / n // ceil(K/N), the expected move count
			bound := fair + 3*isqrt(fair)
			if moved > bound {
				t.Fatalf("join moved %d keys, bound ceil(%d/%d)+3σ=%d", moved, K, n, bound)
			}
			if moved == 0 {
				t.Fatal("join moved no keys — joiner owns nothing")
			}

			// Leave: remove one existing member.
			leaver := members[n/2]
			rest := make([]string, 0, n-1)
			for _, m := range members {
				if m != leaver {
					rest = append(rest, m)
				}
			}
			after := NewRing(3, rest)
			moved, held := 0, 0
			for _, k := range keys {
				ob, oa := before.Owner(k), after.Owner(k)
				if ob == leaver {
					held++
				}
				if ob == oa {
					continue
				}
				moved++
				if ob != leaver {
					t.Fatalf("leave moved %q owned by survivor %s (to %s)", k, ob, oa)
				}
			}
			// Exact minimality: everything the leaver held moves,
			// nothing else does.
			if moved != held {
				t.Fatalf("leave moved %d keys but leaver held %d", moved, held)
			}
			if moved > bound {
				t.Fatalf("leave moved %d keys, bound %d", moved, bound)
			}
		})
	}
}

// isqrt is the integer square root (for the 3-sigma slack).
func isqrt(n int) int {
	x := n
	for y := (x + 1) / 2; y < x; y = (x + n/x) / 2 {
		x = y
	}
	return x
}

// TestRingOwnerZeroAlloc pins the routing hot path at zero allocations
// per lookup, alongside the shardFor pin, so allocation regressions on
// either path fail loudly.
func TestRingOwnerZeroAlloc(t *testing.T) {
	r := NewRing(1, ringMembers(16))
	key := []byte("dataset/run0001/event000042")
	if n := testing.AllocsPerRun(200, func() { _ = r.Owner(key) }); n != 0 {
		t.Fatalf("Ring.Owner allocates %.1f per call, want 0", n)
	}
}

// TestShardForZeroAlloc pins the shardedDB.shardFor bugfix: the old
// implementation allocated a hash.Hash32 per call on the Put/Get/Delete
// hot path.
func TestShardForZeroAlloc(t *testing.T) {
	d := newShardedDB("pin")
	key := []byte("dataset/run0001/event000042")
	if n := testing.AllocsPerRun(200, func() { _ = d.shardFor(key) }); n != 0 {
		t.Fatalf("shardFor allocates %.1f per call, want 0", n)
	}
	// And the routing stays stable: same key, same shard, all shards
	// reachable.
	hit := map[*shard]bool{}
	for _, k := range ringKeys(1024) {
		s := d.shardFor(k)
		if s != d.shardFor(k) {
			t.Fatal("shardFor not deterministic")
		}
		hit[s] = true
	}
	if len(hit) != numShards {
		t.Fatalf("shardFor covered %d of %d shards", len(hit), numShards)
	}
}
