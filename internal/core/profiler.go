package core

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// Lamport is a logical clock (Lamport's algorithm, paper §IV-A2) used to
// order trace events across processes despite clock skew.
type Lamport struct{ c atomic.Uint64 }

// Tick advances the clock for a local event and returns the new value.
func (l *Lamport) Tick() uint64 { return l.c.Add(1) }

// Merge folds in a counter received with a message and returns the
// clock's new value: max(local, remote) + 1.
func (l *Lamport) Merge(remote uint64) uint64 {
	for {
		cur := l.c.Load()
		next := cur + 1
		if remote >= cur {
			next = remote + 1
		}
		if l.c.CompareAndSwap(cur, next) {
			return next
		}
	}
}

// Now reads the clock without advancing it.
func (l *Lamport) Now() uint64 { return l.c.Load() }

// StatKey identifies one profiled (callpath, peer) pair. On the origin
// side Peer is the target address; on the target side it is the origin
// address — giving the per-origin / per-target call distributions of the
// paper's profile summary (§V-A2).
type StatKey struct {
	BC   Breadcrumb
	Peer string
}

// HistBuckets is the number of log-scale latency buckets per callpath.
// Buckets are spaced two per octave (boundaries at 2^k and 3·2^(k-1)
// nanoseconds), giving ≤±25% relative error on quantile estimates —
// twice the resolution of plain log2 buckets for the same mergeability:
// bucket counts add element-wise, so Merge stays associative and
// order-independent (the shard-merge property of the collector).
//
// Bucket 0 is the underflow bucket [0, 2^histMinOctave); buckets
// 1..HistBuckets-2 tile [2^histMinOctave, 2^(histMinOctave+20)) — about
// 1µs through 1s — and the last bucket absorbs everything above.
const HistBuckets = 42

// histMinOctave is the exponent of the first two-per-octave boundary:
// latencies below 2^histMinOctave ns (≈1µs) land in the underflow
// bucket. RPC-scale latencies on the simulated fabric are ≥ microseconds,
// so resolution is spent where the distributions actually live.
const histMinOctave = 10

// CallStats accumulates timing for one StatKey, including the call-time
// distribution the paper's question 1 asks for.
type CallStats struct {
	Count      uint64
	CumNanos   uint64
	MinNanos   uint64
	MaxNanos   uint64
	Components [NumComponents]uint64
	Hist       [HistBuckets]uint32 `json:"Hist,omitempty"`
}

// HistBucket maps a latency in nanoseconds to its histogram bucket:
// 2·(log2(n)−histMinOctave)+half+1, where half selects the upper half
// of the octave (the 3·2^(k-1) boundary), clamped into the table.
func HistBucket(n uint64) int {
	if n < 1<<histMinOctave {
		return 0
	}
	o := bits.Len64(n) - 1 // floor(log2 n), o >= histMinOctave
	half := int(n >> (o - 1) & 1)
	idx := 2*(o-histMinOctave) + half + 1
	if idx >= HistBuckets {
		idx = HistBuckets - 1
	}
	return idx
}

// HistBucketBounds returns the [lo, hi) nanosecond range of bucket i.
// Bucket 0 is [0, 2^histMinOctave); the last bucket's hi is MaxUint64
// (it absorbs all latencies past the tiled range). Consumers exporting
// Prometheus histograms use hi as the bucket's `le` boundary.
func HistBucketBounds(i int) (lo, hi uint64) {
	lower := func(j int) uint64 {
		if j <= 0 {
			return 0
		}
		k := (j - 1) / 2
		half := uint64((j - 1) % 2)
		return (2 + half) << (histMinOctave + k - 1)
	}
	if i >= HistBuckets-1 {
		return lower(HistBuckets - 1), math.MaxUint64
	}
	return lower(i), lower(i + 1)
}

// record folds one call into the stats. total is the side's primary
// interval (origin execution time or target execution time).
func (s *CallStats) record(total time.Duration, comps *[NumComponents]uint64) {
	n := uint64(total)
	s.Count++
	s.CumNanos += n
	if s.Count == 1 || n < s.MinNanos {
		s.MinNanos = n
	}
	if n > s.MaxNanos {
		s.MaxNanos = n
	}
	s.Hist[HistBucket(n)]++
	if comps != nil {
		for i, v := range comps {
			s.Components[i] += v
		}
	}
}

// Record folds one standalone observation into the stats (no component
// breakdown). Scenario harnesses use it to build phase-local latency
// distributions with the same histogram/percentile machinery the
// collector uses for callpaths.
func (s *CallStats) Record(total time.Duration) {
	s.record(total, nil)
}

// Merge folds other into s (used by offline profile aggregation).
func (s *CallStats) Merge(other *CallStats) {
	if other.Count == 0 {
		return
	}
	if s.Count == 0 {
		*s = *other
		return
	}
	s.Count += other.Count
	s.CumNanos += other.CumNanos
	if other.MinNanos < s.MinNanos {
		s.MinNanos = other.MinNanos
	}
	if other.MaxNanos > s.MaxNanos {
		s.MaxNanos = other.MaxNanos
	}
	for i := range s.Components {
		s.Components[i] += other.Components[i]
	}
	for i := range s.Hist {
		s.Hist[i] += other.Hist[i]
	}
}

// Mean returns the average call latency.
func (s *CallStats) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.CumNanos / s.Count)
}

// Percentile estimates the p-th percentile latency (0 < p <= 100) from
// the two-per-octave histogram, interpolating linearly within the
// bucket. The unbounded top bucket is capped at the observed maximum
// before interpolating, so estimates never exceed MaxNanos.
func (s *CallStats) Percentile(p float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if p <= 0 {
		return time.Duration(s.MinNanos)
	}
	if p >= 100 {
		return time.Duration(s.MaxNanos)
	}
	target := p / 100 * float64(s.Count)
	var seen float64
	for i, c := range s.Hist {
		if c == 0 {
			continue
		}
		next := seen + float64(c)
		if next >= target {
			lo, hi := HistBucketBounds(i)
			if hi > s.MaxNanos {
				hi = s.MaxNanos
			}
			if hi < lo {
				hi = lo
			}
			frac := (target - seen) / float64(c)
			est := float64(lo) + frac*(float64(hi)-float64(lo))
			// Clamp into the observed range.
			if est < float64(s.MinNanos) {
				est = float64(s.MinNanos)
			}
			if est > float64(s.MaxNanos) {
				est = float64(s.MaxNanos)
			}
			return time.Duration(est)
		}
		seen = next
	}
	return time.Duration(s.MaxNanos)
}

// Profiler is the per-process SYMBIOSYS measurement state: it owns the
// process identity, the measurement stage, the Lamport clock, request ID
// allocation, and the sharded measurement collector holding the callpath
// profiles and the trace rings.
type Profiler struct {
	entity string
	pid    uint32
	stage  atomic.Int32

	Clock  Lamport
	reqSeq atomic.Uint32

	names *NameRegistry

	// skew simulates this process's wall-clock offset from true time
	// (nanoseconds). Trace-event timestamps are stamped with it, which
	// is why cross-process ordering relies on the Lamport clock rather
	// than timestamps (paper §IV-A2).
	skew atomic.Int64

	// coll is the sharded measurement pipeline, fixed at construction.
	coll *Collector

	// pvarSnap, when set (SetPVarSnapshot), is called at Dump time so
	// profile dumps carry the owning layer's performance-variable
	// totals (shed/retry/breaker counters and the like) alongside the
	// callpath statistics.
	pvarSnap atomic.Pointer[func() map[string]uint64]

	start time.Time
}

var pidSeq atomic.Uint32

// NewProfiler creates the measurement state for one (virtual) process.
// entity is the process's fabric address.
func NewProfiler(entity string, stage Stage) *Profiler {
	p := &Profiler{
		entity: entity,
		pid:    pidSeq.Add(1),
		names:  NewNameRegistry(),
		start:  time.Now(),
		coll:   NewCollector(DefaultShards, DefaultTraceCapacity),
	}
	p.stage.Store(int32(stage))
	return p
}

// Entity returns the process address the profiler describes.
func (p *Profiler) Entity() string { return p.entity }

// PID returns the process's numeric id (the high half of request IDs).
func (p *Profiler) PID() uint32 { return p.pid }

// Stage returns the active measurement stage.
func (p *Profiler) Stage() Stage { return Stage(p.stage.Load()) }

// SetStage switches the measurement stage at runtime.
func (p *Profiler) SetStage(s Stage) { p.stage.Store(int32(s)) }

// Names returns the process's hop-hash name registry.
func (p *Profiler) Names() *NameRegistry { return p.names }

// Collector returns the process's sharded measurement pipeline.
func (p *Profiler) Collector() *Collector { return p.coll }

// AddTraceSink attaches a streaming sink observing every subsequently
// emitted trace event.
func (p *Profiler) AddTraceSink(s TraceSink) { p.coll.AddTraceSink(s) }

// FlushSinks flushes all attached trace sinks.
func (p *Profiler) FlushSinks() error { return p.coll.FlushSinks() }

// SetClockSkew sets the simulated wall-clock offset of this process.
func (p *Profiler) SetClockSkew(d time.Duration) { p.skew.Store(int64(d)) }

// StampNanos converts a true instant into this process's (possibly
// skewed) wall-clock nanoseconds for trace-event timestamps.
func (p *Profiler) StampNanos(t time.Time) int64 {
	return t.UnixNano() + p.skew.Load()
}

// NewRequestID allocates a globally unique request ID: pid<<32 | seq
// (paper §IV-A2; end-clients call this at the root of each operation).
func (p *Profiler) NewRequestID() uint64 {
	return uint64(p.pid)<<32 | uint64(p.reqSeq.Add(1))
}

// RecordOrigin folds one completed RPC into the origin-side profile.
// total is the origin execution time (t1→t14); comps carries whichever
// components the origin measured. The recording shard is derived from
// the callpath; hot paths that know their execution stream should use
// RecordOriginAt.
func (p *Profiler) RecordOrigin(bc Breadcrumb, target string, total time.Duration, comps *[NumComponents]uint64) {
	p.RecordOriginAt(uint64(bc), bc, target, total, comps)
}

// RecordOriginAt is RecordOrigin recording into the shard selected by
// key — callers on the RPC fast path pass their ULT/ES id so concurrent
// execution streams take disjoint locks (the per-thread storage of the
// paper's TAU backend).
func (p *Profiler) RecordOriginAt(key uint64, bc Breadcrumb, target string, total time.Duration, comps *[NumComponents]uint64) {
	if !p.Stage().Measures() {
		return
	}
	p.coll.RecordOrigin(key, bc, target, total, comps)
}

// RecordTarget folds one serviced RPC into the target-side profile.
// total is the target ULT execution time (t5→t8).
func (p *Profiler) RecordTarget(bc Breadcrumb, origin string, total time.Duration, comps *[NumComponents]uint64) {
	p.RecordTargetAt(uint64(bc), bc, origin, total, comps)
}

// RecordTargetAt is RecordTarget recording into the shard selected by
// key (the handler ULT's id on the RPC fast path).
func (p *Profiler) RecordTargetAt(key uint64, bc Breadcrumb, origin string, total time.Duration, comps *[NumComponents]uint64) {
	if !p.Stage().Measures() {
		return
	}
	p.coll.RecordTarget(key, bc, origin, total, comps)
}

// Emit appends one trace event, sharded by its request ID. Hot paths
// that know their execution stream should use EmitAt.
func (p *Profiler) Emit(ev Event) { p.EmitAt(ev.RequestID, ev) }

// EmitAt appends one trace event into the shard selected by key (the
// emitting ULT's id on the RPC fast path).
func (p *Profiler) EmitAt(key uint64, ev Event) { p.coll.Emit(key, ev) }

// EmitSampled is EmitAt with the event's PVAR sample and component
// breakdown passed beside it (see Collector.EmitSampled): the collector
// copies both, so the caller's values need not outlive the call.
func (p *Profiler) EmitSampled(key uint64, ev Event, pv *PVarSample, comps *[NumComponents]uint64) {
	p.coll.EmitSampled(key, ev, pv, comps)
}

// TraceLen reports the number of buffered trace events.
func (p *Profiler) TraceLen() int { return p.coll.TraceLen() }

// TraceDropped reports trace events discarded due to the capacity bound.
func (p *Profiler) TraceDropped() uint64 { return p.coll.Dropped() }

// TraceEvents returns a merged copy of the buffered trace events,
// ordered by timestamp then Lamport order.
func (p *Profiler) TraceEvents() []Event { return p.coll.Events() }

// ResetMeasurements clears the profile maps and trace rings (between
// experiment repetitions).
func (p *Profiler) ResetMeasurements() { p.coll.Reset() }

// OriginStats returns a merged deep copy of the origin-side profile.
func (p *Profiler) OriginStats() map[StatKey]CallStats { return p.coll.OriginStats() }

// TargetStats returns a merged deep copy of the target-side profile.
func (p *Profiler) TargetStats() map[StatKey]CallStats { return p.coll.TargetStats() }

// Dump serializes the profiler state for offline analysis, folding all
// collector shards into the single merged per-process view the analysis
// tools ingest.
func (p *Profiler) Dump() *ProfileDump {
	c := p.coll
	d := &ProfileDump{
		Entity:       p.entity,
		PID:          p.pid,
		Stage:        p.Stage().String(),
		Started:      p.start,
		Names:        p.names.Names(),
		TraceDropped: c.Dropped(),
		Origin:       make([]DumpEntry, 0),
		Target:       make([]DumpEntry, 0),
	}
	for k, v := range c.OriginStats() {
		d.Origin = append(d.Origin, DumpEntry{BC: uint64(k.BC), Peer: k.Peer, Stats: v})
	}
	for k, v := range c.TargetStats() {
		d.Target = append(d.Target, DumpEntry{BC: uint64(k.BC), Peer: k.Peer, Stats: v})
	}
	sort.Slice(d.Origin, func(i, j int) bool { return d.Origin[i].less(&d.Origin[j]) })
	sort.Slice(d.Target, func(i, j int) bool { return d.Target[i].less(&d.Target[j]) })
	if fn := p.pvarSnap.Load(); fn != nil {
		d.PVars = (*fn)()
	}
	return d
}

// SetPVarSnapshot installs the provider of the PVar totals attached to
// profile dumps. The owning layer (margo) passes a closure reading its
// performance variables, so operational counters — requests shed,
// deadline expiries, breaker trips, retries — land in the same dump the
// analysis scripts ingest.
func (p *Profiler) SetPVarSnapshot(fn func() map[string]uint64) {
	p.pvarSnap.Store(&fn)
}
