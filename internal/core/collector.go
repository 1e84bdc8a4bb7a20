package core

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultShards is the default number of collector shards. Shards are
// keyed by ULT/ES identifiers at the Margo instrumentation points, so a
// fixed power of two spreads concurrent execution streams across
// independent locks the way the paper's per-thread TAU storage does
// (§IV-A): two ULTs on different execution streams almost never touch
// the same shard, and the merge layer folds the shards back into one
// profile view at read time.
const DefaultShards = 8

// maxShards bounds the shard count to keep snapshots cheap.
const maxShards = 256

// collectorShard is one independently locked slice of the measurement
// state: local callpath maps plus a local trace ring. The pad keeps
// adjacent shards on separate cache lines so per-shard locking does not
// degenerate into false sharing.
type collectorShard struct {
	mu     sync.Mutex
	origin map[StatKey]*CallStats
	target map[StatKey]*CallStats
	trace  *Tracer
	_      [64]byte
}

// Collector is the sharded measurement pipeline behind a Profiler. Hot
// writers (RecordOrigin, RecordTarget, Emit) take only the lock of the
// shard their key maps to; readers (OriginStats, Events, Dump) fold all
// shards into the merged view on demand. Optional TraceSinks observe
// every emitted event in addition to the in-memory rings, turning
// exporters into consumers of the stream rather than owners of the
// buffers.
type Collector struct {
	shards []collectorShard
	mask   uint64

	sinks    atomic.Pointer[[]TraceSink]
	sinkErrs atomic.Uint64
	traceCap int
}

// roundPow2 rounds n up to the next power of two within [1, maxShards].
func roundPow2(n int) int {
	if n <= 1 {
		return 1
	}
	if n > maxShards {
		n = maxShards
	}
	return 1 << bits.Len(uint(n-1))
}

// NewCollector builds a collector with the given shard count (rounded up
// to a power of two; <=0 selects DefaultShards) and total trace
// capacity split evenly across the shard rings (<=0 selects
// DefaultTraceCapacity).
func NewCollector(shards, traceCapacity int) *Collector {
	if shards <= 0 {
		shards = DefaultShards
	}
	shards = roundPow2(shards)
	if traceCapacity <= 0 {
		traceCapacity = DefaultTraceCapacity
	}
	perShard := (traceCapacity + shards - 1) / shards
	c := &Collector{
		shards:   make([]collectorShard, shards),
		mask:     uint64(shards - 1),
		traceCap: perShard * shards,
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.origin = make(map[StatKey]*CallStats)
		s.target = make(map[StatKey]*CallStats)
		s.trace = NewTracer(perShard)
	}
	return c
}

func (c *Collector) shard(key uint64) *collectorShard {
	return &c.shards[key&c.mask]
}

// RecordOrigin folds one completed RPC into the origin-side profile of
// the shard selected by key (callers pass their ULT/ES id so concurrent
// execution streams hit disjoint locks).
func (c *Collector) RecordOrigin(key uint64, bc Breadcrumb, peer string, total time.Duration, comps *[NumComponents]uint64) {
	sh := c.shard(key)
	sk := StatKey{BC: bc, Peer: peer}
	sh.mu.Lock()
	s := sh.origin[sk]
	if s == nil {
		s = &CallStats{}
		sh.origin[sk] = s
	}
	s.record(total, comps)
	sh.mu.Unlock()
}

// RecordTarget folds one serviced RPC into the target-side profile of
// the shard selected by key.
func (c *Collector) RecordTarget(key uint64, bc Breadcrumb, peer string, total time.Duration, comps *[NumComponents]uint64) {
	sh := c.shard(key)
	sk := StatKey{BC: bc, Peer: peer}
	sh.mu.Lock()
	s := sh.target[sk]
	if s == nil {
		s = &CallStats{}
		sh.target[sk] = s
	}
	s.record(total, comps)
	sh.mu.Unlock()
}

// Emit appends a trace event to the ring of the shard selected by key,
// stamping its wall-clock time if unset, and tees it to any attached
// sinks. Sinks observe every event including ones the bounded ring
// drops (a streaming sink has no capacity limit of ours to respect; its
// backpressure is its own).
func (c *Collector) Emit(key uint64, ev Event) {
	c.EmitSampled(key, ev, ev.PVars, ev.Components)
}

// EmitSampled is Emit for the RPC fast path: the event's PVAR sample
// and component breakdown arrive beside it (nil when absent) rather
// than through ev.PVars/ev.Components, are encoded into the shard's
// trace with the event, and so may live on the caller's stack.
func (c *Collector) EmitSampled(key uint64, ev Event, pv *PVarSample, comps *[NumComponents]uint64) {
	if ev.Timestamp == 0 {
		ev.Timestamp = time.Now().UnixNano()
	}
	c.shard(key).trace.emit(&ev, pv, comps)
	sinks := c.sinks.Load()
	if sinks == nil {
		return
	}
	// Sinks borrow the event. Its annotations go through pooled scratch,
	// filled on this branch alone, because a pointer handed to an
	// interface method escapes: so the caller's values stay on its stack,
	// sink or no sink, and the tee allocates nothing.
	a := sinkScratch.Get().(*sinkAnnotations)
	ev.PVars, ev.Components = nil, nil
	if pv != nil {
		a.pv, ev.PVars = *pv, &a.pv
	}
	if comps != nil {
		a.comps, ev.Components = *comps, &a.comps
	}
	for _, s := range *sinks {
		if err := s.WriteEvent(ev); err != nil {
			c.sinkErrs.Add(1)
		}
	}
	sinkScratch.Put(a)
}

// sinkAnnotations is where an event's annotations live while the sinks
// read them.
type sinkAnnotations struct {
	pv    PVarSample
	comps [NumComponents]uint64
}

var sinkScratch = sync.Pool{New: func() any { return new(sinkAnnotations) }}

// AddTraceSink attaches a sink that will observe every subsequently
// emitted event. Attach sinks at setup time, before hot-path traffic.
func (c *Collector) AddTraceSink(s TraceSink) {
	for {
		old := c.sinks.Load()
		var next []TraceSink
		if old != nil {
			next = append(next, *old...)
		}
		next = append(next, s)
		if c.sinks.CompareAndSwap(old, &next) {
			return
		}
	}
}

// FlushSinks flushes every attached sink, returning the first error.
// Flush failures count toward SinkErrors like per-event write failures,
// so the telemetry sink_errors stat covers both loss modes.
func (c *Collector) FlushSinks() error {
	var first error
	if sinks := c.sinks.Load(); sinks != nil {
		for _, s := range *sinks {
			if err := s.Flush(); err != nil {
				c.sinkErrs.Add(1)
				if first == nil {
					first = err
				}
			}
		}
	}
	return first
}

// SinkErrors reports events a sink failed to consume plus flushes that
// failed — the telemetry plane's sink_errors stat.
func (c *Collector) SinkErrors() uint64 { return c.sinkErrs.Load() }

// OriginStats folds all shards into a merged copy of the origin-side
// profile — the same StatKey → CallStats view a single-map profiler
// would hold.
func (c *Collector) OriginStats() map[StatKey]CallStats { return c.mergeStats(true) }

// TargetStats folds all shards into a merged copy of the target-side
// profile.
func (c *Collector) TargetStats() map[StatKey]CallStats { return c.mergeStats(false) }

func (c *Collector) mergeStats(origin bool) map[StatKey]CallStats {
	out := make(map[StatKey]CallStats)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		src := sh.target
		if origin {
			src = sh.origin
		}
		for k, v := range src {
			merged := out[k]
			merged.Merge(v)
			out[k] = merged
		}
		sh.mu.Unlock()
	}
	return out
}

// Events returns a merged copy of all shard trace rings, ordered by
// timestamp then Lamport order (per-shard emission order is preserved;
// the cross-shard interleave is reconstructed the same way the offline
// analysis orders events).
func (c *Collector) Events() []Event {
	snaps := make([]traceSnapshot, len(c.shards))
	for i := range c.shards {
		snaps[i] = c.shards[i].trace.snapshot()
	}
	out := decodeSnapshots(snaps)
	sortEvents(out)
	return out
}

// TraceLen reports the number of buffered trace events across shards.
func (c *Collector) TraceLen() int {
	n := 0
	for i := range c.shards {
		n += c.shards[i].trace.Len()
	}
	return n
}

// Dropped reports trace events discarded due to the capacity bound,
// summed across shards.
func (c *Collector) Dropped() uint64 {
	var n uint64
	for i := range c.shards {
		n += c.shards[i].trace.Dropped()
	}
	return n
}

// sortEvents orders a merged event slice by timestamp, breaking ties by
// Lamport order then request ID for determinism.
func sortEvents(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Timestamp != evs[j].Timestamp {
			return evs[i].Timestamp < evs[j].Timestamp
		}
		if evs[i].Order != evs[j].Order {
			return evs[i].Order < evs[j].Order
		}
		return evs[i].RequestID < evs[j].RequestID
	})
}

// Reset clears every shard's profile maps and trace ring (between
// experiment repetitions).
func (c *Collector) Reset() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.origin = make(map[StatKey]*CallStats)
		sh.target = make(map[StatKey]*CallStats)
		sh.mu.Unlock()
		sh.trace.Reset()
	}
}
