package core

import (
	"math"
	"math/bits"
	"sort"
	"sync"
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
// order-independent (the shard-merge property of the Profiler).
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
// Profiler uses for callpaths.
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

// numShards is the number of measurement shards of a Profiler. Margo
// keys its records by ULT id, so a fixed power of two spreads concurrent
// execution streams across independent locks the way the paper's
// per-thread TAU storage does (§IV-A): two ULTs on different execution
// streams almost never touch the same shard, and the reads fold the
// shards back into one per-process view.
const numShards = 8

// shard is one independently locked slice of a process's measurements:
// its callpath maps and its trace records, all behind the one mutex.
// The pad keeps adjacent shards on separate cache lines so per-shard
// locking does not degenerate into false sharing.
type shard struct {
	mu     sync.Mutex
	origin map[StatKey]*CallStats
	target map[StatKey]*CallStats
	trace  traceBuf
	_      [64]byte
}

// Profiler is the per-process SYMBIOSYS measurement state: the process
// identity, the measurement stage, the Lamport clock, request ID
// allocation, and the one measurement store. Writers (RecordOriginAt,
// RecordTargetAt, EmitSampled) take only the lock of the shard their key
// maps to; readers (OriginStats, TraceEvents, Dump) fold all shards into
// the merged view on demand. Attached TraceSinks observe every emitted
// event besides the shards' buffers, so exporters consume the stream
// rather than own the buffers.
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

	shards []shard // a power of two, fixed at construction
	mask   uint64

	sinks    atomic.Pointer[[]TraceSink]
	sinkErrs atomic.Uint64

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
	return newProfiler(entity, stage, numShards, DefaultTraceCapacity)
}

// newProfiler is NewProfiler with a given shard count (a power of two)
// and total trace capacity, split evenly across the shards (<= 0 selects
// DefaultTraceCapacity).
func newProfiler(entity string, stage Stage, shards, capacity int) *Profiler {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	p := &Profiler{
		entity: entity,
		pid:    pidSeq.Add(1),
		names:  NewNameRegistry(),
		start:  time.Now(),
		shards: make([]shard, shards),
		mask:   uint64(shards - 1),
	}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.origin = make(map[StatKey]*CallStats)
		sh.target = make(map[StatKey]*CallStats)
		sh.trace.cap = (capacity + shards - 1) / shards
	}
	p.stage.Store(int32(stage))
	return p
}

// Stage returns the active measurement stage.
func (p *Profiler) Stage() Stage { return Stage(p.stage.Load()) }

// SetStage switches the measurement stage at runtime.
func (p *Profiler) SetStage(s Stage) { p.stage.Store(int32(s)) }

// Names returns the process's hop-hash name registry.
func (p *Profiler) Names() *NameRegistry { return p.names }

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
// the callpath; hot paths that know their execution stream use
// RecordOriginAt.
func (p *Profiler) RecordOrigin(bc Breadcrumb, target string, total time.Duration, comps *[NumComponents]uint64) {
	p.RecordOriginAt(uint64(bc), bc, target, total, comps)
}

// RecordOriginAt is RecordOrigin recording into the shard selected by
// key — callers on the RPC fast path pass their ULT id so concurrent
// execution streams take disjoint locks (the per-thread storage of the
// paper's TAU backend).
func (p *Profiler) RecordOriginAt(key uint64, bc Breadcrumb, target string, total time.Duration, comps *[NumComponents]uint64) {
	p.record(key, true, StatKey{BC: bc, Peer: target}, total, comps)
}

// RecordTargetAt folds one serviced RPC into the target-side profile of
// the shard selected by key (the handler ULT's id on the RPC fast path).
// total is the target ULT execution time (t5→t8).
func (p *Profiler) RecordTargetAt(key uint64, bc Breadcrumb, origin string, total time.Duration, comps *[NumComponents]uint64) {
	p.record(key, false, StatKey{BC: bc, Peer: origin}, total, comps)
}

func (p *Profiler) record(key uint64, origin bool, sk StatKey, total time.Duration, comps *[NumComponents]uint64) {
	if !p.Stage().Measures() {
		return
	}
	sh := &p.shards[key&p.mask]
	sh.mu.Lock()
	m := sh.target
	if origin {
		m = sh.origin
	}
	s := m[sk]
	if s == nil {
		s = &CallStats{}
		m[sk] = s
	}
	s.record(total, comps)
	sh.mu.Unlock()
}

// Emit appends one trace event, with the annotations it carries, to the
// shard selected by its request ID.
func (p *Profiler) Emit(ev Event) { p.EmitSampled(ev.RequestID, ev, ev.PVars, ev.Components) }

// EmitSampled appends one trace event to the shard selected by key (the
// emitting ULT's id on the RPC fast path), stamping its time if unset,
// and tees it to the attached sinks. The event's PVAR sample and
// component breakdown arrive beside it (nil when absent; ev.PVars and
// ev.Components are not read) and are copied, so they may live on the
// caller's stack. Sinks observe every event, including the ones the
// bounded buffer drops: a streaming sink has no capacity limit of ours
// to respect.
func (p *Profiler) EmitSampled(key uint64, ev Event, pv *PVarSample, comps *[NumComponents]uint64) {
	if ev.Timestamp == 0 {
		ev.Timestamp = p.StampNanos(time.Now())
	}
	sh := &p.shards[key&p.mask]
	sh.mu.Lock()
	sh.trace.emit(&ev, pv, comps)
	sh.mu.Unlock()
	sinks := p.sinks.Load()
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
			p.sinkErrs.Add(1)
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
func (p *Profiler) AddTraceSink(s TraceSink) {
	for {
		old := p.sinks.Load()
		var next []TraceSink
		if old != nil {
			next = append(next, *old...)
		}
		next = append(next, s)
		if p.sinks.CompareAndSwap(old, &next) {
			return
		}
	}
}

// FlushSinks flushes every attached sink, returning the first error.
// Flush failures count toward SinkErrors like per-event write failures,
// so the telemetry sink_errors stat covers both loss modes.
func (p *Profiler) FlushSinks() error {
	var first error
	if sinks := p.sinks.Load(); sinks != nil {
		for _, s := range *sinks {
			if err := s.Flush(); err != nil {
				p.sinkErrs.Add(1)
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
func (p *Profiler) SinkErrors() uint64 { return p.sinkErrs.Load() }

// TraceLen reports the number of buffered trace events.
func (p *Profiler) TraceLen() int {
	n := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		n += sh.trace.n
		sh.mu.Unlock()
	}
	return n
}

// TraceDropped reports trace events discarded due to the capacity bound.
func (p *Profiler) TraceDropped() uint64 {
	var n uint64
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		n += sh.trace.dropped
		sh.mu.Unlock()
	}
	return n
}

// TraceEvents returns a merged copy of the buffered trace events,
// ordered by timestamp then Lamport order: each shard's emission order
// is kept, and the cross-shard interleave is reconstructed the way the
// offline analysis orders events. The records are decoded outside the
// shard locks, while emitters keep appending.
func (p *Profiler) TraceEvents() []Event {
	snaps := make([]traceSnapshot, len(p.shards))
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		snaps[i] = sh.trace.snapshot()
		sh.mu.Unlock()
	}
	out := decodeSnapshots(snaps)
	sortEvents(out)
	return out
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

// ResetMeasurements clears the profile maps and trace buffers (between
// experiment repetitions).
func (p *Profiler) ResetMeasurements() {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		sh.origin = make(map[StatKey]*CallStats)
		sh.target = make(map[StatKey]*CallStats)
		sh.trace.reset()
		sh.mu.Unlock()
	}
}

// OriginStats returns a merged deep copy of the origin-side profile:
// the StatKey → CallStats view a single map would hold.
func (p *Profiler) OriginStats() map[StatKey]CallStats { return p.mergeStats(true) }

// TargetStats returns a merged deep copy of the target-side profile.
func (p *Profiler) TargetStats() map[StatKey]CallStats { return p.mergeStats(false) }

func (p *Profiler) mergeStats(origin bool) map[StatKey]CallStats {
	out := make(map[StatKey]CallStats)
	for i := range p.shards {
		sh := &p.shards[i]
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

// Dump serializes the profiler state for offline analysis, folding all
// shards into the single merged per-process view the analysis tools
// ingest.
func (p *Profiler) Dump() *ProfileDump {
	d := &ProfileDump{
		Entity:       p.entity,
		PID:          p.pid,
		Stage:        p.Stage().String(),
		Started:      p.start,
		Names:        p.names.Names(),
		TraceDropped: p.TraceDropped(),
		Origin:       make([]DumpEntry, 0),
		Target:       make([]DumpEntry, 0),
	}
	for k, v := range p.OriginStats() {
		d.Origin = append(d.Origin, DumpEntry{BC: uint64(k.BC), Peer: k.Peer, Stats: v})
	}
	for k, v := range p.TargetStats() {
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
