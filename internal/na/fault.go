package na

import (
	"errors"
	"hash/fnv"
	"sync"
	"time"
)

// ErrPartitioned reports a send refused because the fault plan
// partitions the link between the two endpoints.
var ErrPartitioned = errors.New("na: link partitioned")

// LinkKey names one directed link of the fabric for fault-plan rules.
// An empty From or To acts as a wildcard when rules are matched.
type LinkKey struct {
	From string
	To   string
}

// FaultRule is the fault behaviour of one link (or the plan default).
// Probabilities are per message; decisions are drawn from the plan's
// seeded generator so a run is reproducible given the same send order
// on each link.
type FaultRule struct {
	// DropProb silently discards the message: the sender still observes
	// EvSendDone (as a NIC would report), the receiver sees nothing, and
	// recovery is the origin's timeout. Applies to two-sided messaging
	// only — a silently lost one-sided transfer would strand the
	// initiator with no peer to time out, so RDMA ignores it.
	DropProb float64
	// DupProb delivers the message twice (receiver-side duplication, as
	// retransmission-based fabrics can produce).
	DupProb float64
	// DelayProb adds Delay to the modeled transfer latency. Because
	// per-destination ordering chains hold later deliveries behind
	// earlier ones, a delayed message models a genuinely slow link, not
	// reordering.
	DelayProb float64
	Delay     time.Duration
	// Partition refuses the operation outright: the sender gets an
	// immediate EvError wrapping ErrPartitioned. Set it on one direction
	// for a one-way partition, on both for a full partition.
	Partition bool
}

// active reports whether the rule can affect traffic at all.
func (r FaultRule) active() bool {
	return r.Partition || r.DropProb > 0 || r.DupProb > 0 || (r.DelayProb > 0 && r.Delay > 0)
}

// FaultPlan is a deterministic fault-injection configuration for a
// fabric: a seeded default rule plus per-link overrides. Install it
// with Fabric.SetFaultPlan; it is hot-settable at runtime, so tests and
// chaos runs can open and heal partitions mid-workload.
//
// Rule matching is most-specific-first: exact (From,To), then
// (From,*), then (*,To), then the Default.
type FaultPlan struct {
	Seed    uint64
	Default FaultRule
	Links   map[LinkKey]FaultRule
}

// NewFaultPlan returns an empty plan with the given seed.
func NewFaultPlan(seed uint64) *FaultPlan {
	return &FaultPlan{Seed: seed, Links: make(map[LinkKey]FaultRule)}
}

// SetLink installs a per-link rule (wildcards allowed via empty
// endpoints) and returns the plan for chaining.
func (p *FaultPlan) SetLink(from, to string, r FaultRule) *FaultPlan {
	if p.Links == nil {
		p.Links = make(map[LinkKey]FaultRule)
	}
	p.Links[LinkKey{From: from, To: to}] = r
	return p
}

// PartitionOneWay refuses traffic from -> to (the reverse direction
// still flows).
func (p *FaultPlan) PartitionOneWay(from, to string) *FaultPlan {
	r := p.ruleAt(from, to)
	r.Partition = true
	return p.SetLink(from, to, r)
}

// Partition refuses traffic in both directions between a and b.
func (p *FaultPlan) Partition(a, b string) *FaultPlan {
	return p.PartitionOneWay(a, b).PartitionOneWay(b, a)
}

// ruleAt returns the existing exact rule for editing helpers.
func (p *FaultPlan) ruleAt(from, to string) FaultRule {
	if p.Links != nil {
		if r, ok := p.Links[LinkKey{From: from, To: to}]; ok {
			return r
		}
	}
	return FaultRule{}
}

// RuleFor resolves the rule governing one directed link.
func (p *FaultPlan) RuleFor(from, to string) FaultRule {
	if p.Links != nil {
		if r, ok := p.Links[LinkKey{From: from, To: to}]; ok {
			return r
		}
		if r, ok := p.Links[LinkKey{From: from}]; ok {
			return r
		}
		if r, ok := p.Links[LinkKey{To: to}]; ok {
			return r
		}
	}
	return p.Default
}

// FaultStats aggregates injected faults across the fabric.
type FaultStats struct {
	Drops    uint64
	Dups     uint64
	Delays   uint64
	Refusals uint64
}

// faultState pairs an installed plan with its per-link sequence
// counters. Swapping the plan resets the counters, so every install is
// a fresh deterministic schedule.
type faultState struct {
	plan *FaultPlan

	mu  sync.Mutex
	seq map[LinkKey]uint64
}

// faultDecision is what one message drew from the plan.
type faultDecision struct {
	drop  bool
	dup   bool
	delay time.Duration
}

// decide draws the next deterministic decision for one link.
func (fs *faultState) decide(from, to string, r FaultRule) faultDecision {
	k := LinkKey{From: from, To: to}
	fs.mu.Lock()
	seq := fs.seq[k]
	fs.seq[k] = seq + 1
	fs.mu.Unlock()

	x := splitmix64(fs.plan.Seed ^ linkHash(from, to) ^ (seq+1)*0x9e3779b97f4a7c15)
	var d faultDecision
	d.drop = unitFloat(x) < r.DropProb
	x = splitmix64(x)
	d.dup = !d.drop && unitFloat(x) < r.DupProb
	x = splitmix64(x)
	if unitFloat(x) < r.DelayProb {
		d.delay = r.Delay
	}
	return d
}

// linkHash folds a directed link into the decision stream seed.
func linkHash(from, to string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(from))
	h.Write([]byte{0})
	h.Write([]byte(to))
	return h.Sum64()
}

// splitmix64 is the SplitMix64 output function: a cheap, well-mixed
// stateless generator step.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// unitFloat maps a 64-bit draw onto [0,1).
func unitFloat(x uint64) float64 {
	return float64(x>>11) / float64(1<<53)
}

// SetFaultPlan installs (or, with nil, removes) the fabric's fault
// plan. Hot-settable: in-flight deliveries already scheduled keep their
// original fate; subsequent sends follow the new plan.
func (f *Fabric) SetFaultPlan(p *FaultPlan) {
	if p == nil {
		f.faults.Store(nil)
		return
	}
	f.faults.Store(&faultState{plan: p, seq: make(map[LinkKey]uint64)})
}

// FaultStats reports fabric-wide injected-fault totals.
func (f *Fabric) FaultStats() FaultStats {
	return FaultStats{
		Drops:    f.faultDrops.Load(),
		Dups:     f.faultDups.Load(),
		Delays:   f.faultDelays.Load(),
		Refusals: f.faultRefusals.Load(),
	}
}

// evalFaults draws the fault outcome for one send from e to `to`,
// counting what it injects. refused reports a partition; the zero
// decision means the message passes untouched.
func (e *Endpoint) evalFaults(to string, rdma bool) (d faultDecision, refused bool) {
	fs := e.fabric.faults.Load()
	if fs == nil {
		return faultDecision{}, false
	}
	r := fs.plan.RuleFor(e.addr, to)
	if !r.active() {
		return faultDecision{}, false
	}
	if r.Partition {
		e.faultRefusals.Add(1)
		e.fabric.faultRefusals.Add(1)
		return faultDecision{}, true
	}
	if rdma {
		// One-sided transfers take only the delay fault: silent loss
		// would strand the initiator (no peer times out for it), and
		// duplication of an idempotent memory copy is unobservable.
		r.DropProb, r.DupProb = 0, 0
	}
	d = fs.decide(e.addr, to, r)
	if d.drop {
		e.faultDrops.Add(1)
		e.fabric.faultDrops.Add(1)
	}
	if d.dup {
		e.faultDups.Add(1)
		e.fabric.faultDups.Add(1)
	}
	if d.delay > 0 {
		e.faultDelays.Add(1)
		e.fabric.faultDelays.Add(1)
	}
	return d, false
}

// Per-endpoint injected-fault counters (sender side: the endpoint that
// issued the affected operation).

// FaultDrops reports messages this endpoint sent that the plan dropped.
func (e *Endpoint) FaultDrops() uint64 { return e.faultDrops.Load() }

// FaultDups reports messages this endpoint sent that were duplicated.
func (e *Endpoint) FaultDups() uint64 { return e.faultDups.Load() }

// FaultDelays reports operations that drew an injected delay.
func (e *Endpoint) FaultDelays() uint64 { return e.faultDelays.Load() }

// FaultRefusals reports operations refused by a partition.
func (e *Endpoint) FaultRefusals() uint64 { return e.faultRefusals.Load() }
