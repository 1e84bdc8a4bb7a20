package core

import (
	"sync"
	"time"
)

// DefaultTraceCapacity bounds the per-process trace buffer; beyond it
// events are counted as dropped rather than grown without bound.
const DefaultTraceCapacity = 1 << 20

// EventKind marks which timeline point a trace event was generated at.
// Tracing emits events at t1 and t14 on the origin and t5 and t8 on the
// target (paper §IV-A2).
type EventKind int8

// Trace event kinds.
const (
	// EvOriginStart is t1: the origin issues the RPC.
	EvOriginStart EventKind = iota
	// EvTargetStart is t5: the handler ULT begins executing.
	EvTargetStart
	// EvTargetEnd is t8: the handler issues its response.
	EvTargetEnd
	// EvOriginEnd is t14: the origin completion callback runs.
	EvOriginEnd
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvOriginStart:
		return "origin_start"
	case EvTargetStart:
		return "target_start"
	case EvTargetEnd:
		return "target_end"
	case EvOriginEnd:
		return "origin_end"
	default:
		return "unknown"
	}
}

// PVarSample is the set of Mercury PVARs fused into trace events at Full
// stage (paper §IV-C).
type PVarSample struct {
	OFIEventsRead    uint64 `json:"ofi_events_read"`
	CompletionQueue  uint64 `json:"completion_queue_size"`
	PostedHandles    uint64 `json:"num_posted_handles"`
	InputSerNanos    uint64 `json:"input_serialization_ns,omitempty"`
	InputDeserNanos  uint64 `json:"input_deserialization_ns,omitempty"`
	OutputSerNanos   uint64 `json:"output_serialization_ns,omitempty"`
	RDMANanos        uint64 `json:"internal_rdma_ns,omitempty"`
	OriginCBNanos    uint64 `json:"origin_cb_ns,omitempty"`
	NetworkPending   uint64 `json:"network_pending,omitempty"`
	BulkBytesMoved   uint64 `json:"bulk_bytes,omitempty"`
	RPCsInvokedTotal uint64 `json:"rpcs_invoked_total,omitempty"`
}

// SysSample is the OS-layer data sampled when generating a trace event
// (paper §IV-C: memory usage and CPU utilization, here the Go-process
// equivalents plus the Argobots pool counters).
type SysSample struct {
	PoolRunnable int64  `json:"pool_runnable"`
	PoolBlocked  int64  `json:"pool_blocked"`
	HeapBytes    uint64 `json:"heap_bytes,omitempty"`
	Goroutines   int    `json:"goroutines,omitempty"`
}

// Event is one distributed-trace record.
type Event struct {
	RequestID  uint64    `json:"request_id"`
	Order      uint64    `json:"order"` // Lamport counter
	Kind       EventKind `json:"kind"`
	Timestamp  int64     `json:"ts_ns"` // local wall clock, ns since epoch
	Entity     string    `json:"entity"`
	Peer       string    `json:"peer,omitempty"`
	RPCName    string    `json:"rpc"`
	Breadcrumb uint64    `json:"breadcrumb"`
	Duration   int64     `json:"dur_ns,omitempty"` // span length for end events
	// BatchID groups the per-op spans of one coalesced (vectored)
	// forward: every member's chain shares the batch ID while keeping
	// its own request ID, so analysis can attribute time per logical op
	// and still see which ops traveled together. Zero means unbatched.
	BatchID uint64 `json:"batch_id,omitempty"`
	// Failed marks a terminal event whose attempt ended in an error:
	// a canceled/failed origin attempt, or a target span closed by a
	// handler panic or error response. Stitchers use it to close spans
	// without treating them as successful executions.
	Failed bool `json:"failed,omitempty"`
	// QueueNanos, on target-start (t5) events, is the handler-pool wait
	// the request's ULT spent spawned-but-unscheduled (t4→t5). It is the
	// per-request form of the CompHandler profile component, carried on
	// the event so critical-path extraction can attribute queueing
	// without consulting the aggregate profile.
	QueueNanos int64 `json:"queue_ns,omitempty"`
	// WindowNanos, on batched origin-end (t14) events, is how long the
	// op sat in the client-side coalescer window before its vectored
	// frame first left the process — the batch-window share of the
	// origin execution time.
	WindowNanos int64       `json:"window_ns,omitempty"`
	Sys         SysSample   `json:"sys"`
	PVars       *PVarSample `json:"pvars,omitempty"`

	// Components carries the per-interval breakdown on end events
	// (indexed by Component).
	Components *[NumComponents]uint64 `json:"components,omitempty"`
}

// A Tracer's storage chunks double from chunkMin entries to sampleChunk
// (PVAR samples, component arrays) or eventChunk (events), so a shard
// that records twenty events does not pay for a large chunk — a
// deployment's first events land inside the run they measure, and 48
// shards times three full-size chunks of never-touched memory was a few
// milliseconds of page faults — and a busy one allocates rarely. The
// unfilled tail of a shard's last chunk is the steady-state cost:
// measured on mobject_ior and hepnos_c7, a 4096-event cap allocated 5%
// and 4% more bytes per op than this one for the same object count (one
// chunk per 512 events is already 0.002 per event).
const (
	chunkMin    = 16
	sampleChunk = 256
	eventChunk  = 512
)

// nextChunk is the capacity of the chunk that follows one of prev
// entries (0: the first), growing to limit.
func nextChunk(prev, limit int) int {
	return min(max(2*prev, chunkMin), limit)
}

// Tracer is a bounded per-process trace buffer. It owns the storage its
// events' PVars and Components point into: emitters hand over values
// that may live on their stack, and the tracer copies them into chunks
// next to the ring, so annotating an event costs no allocation of its
// own. A full chunk is left to the events that point into it and a
// fresh one started; chunks are never reused, so event copies handed
// out by Events stay valid across Reset. The events themselves sit in
// chunks too, each filled in place and never copied as the trace grows.
type Tracer struct {
	mu      sync.Mutex
	chunks  [][]Event
	n       int // events held across all chunks
	pvars   []PVarSample
	comps   [][NumComponents]uint64
	cap     int
	dropped uint64
}

// NewTracer returns a tracer that retains up to capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{cap: capacity}
}

// Emit appends an event, stamping its wall-clock time if unset.
func (t *Tracer) Emit(ev Event) {
	if ev.Timestamp == 0 {
		ev.Timestamp = time.Now().UnixNano()
	}
	t.emit(&ev, ev.PVars, ev.Components)
}

// emit appends *ev annotated with copies of *pv and *comps (either may
// be nil) held in tracer-owned storage, and points ev.PVars and
// ev.Components at those copies. It reports false, leaving ev alone,
// when the ring is full and the event was dropped.
func (t *Tracer) emit(ev *Event, pv *PVarSample, comps *[NumComponents]uint64) bool {
	t.mu.Lock()
	if t.n >= t.cap {
		t.dropped++
		t.mu.Unlock()
		return false
	}
	ev.PVars, ev.Components = nil, nil
	if pv != nil {
		if len(t.pvars) == cap(t.pvars) {
			t.pvars = make([]PVarSample, 0, nextChunk(cap(t.pvars), sampleChunk))
		}
		t.pvars = append(t.pvars, *pv)
		ev.PVars = &t.pvars[len(t.pvars)-1]
	}
	if comps != nil {
		if len(t.comps) == cap(t.comps) {
			t.comps = make([][NumComponents]uint64, 0, nextChunk(cap(t.comps), sampleChunk))
		}
		t.comps = append(t.comps, *comps)
		ev.Components = &t.comps[len(t.comps)-1]
	}
	last := len(t.chunks) - 1
	if last < 0 || len(t.chunks[last]) == cap(t.chunks[last]) {
		size := 0
		if last >= 0 {
			size = cap(t.chunks[last])
		}
		t.chunks = append(t.chunks, make([]Event, 0, nextChunk(size, eventChunk)))
		last++
	}
	t.chunks[last] = append(t.chunks[last], *ev)
	t.n++
	t.mu.Unlock()
	return true
}

// Len reports the number of buffered events.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Dropped reports events discarded due to the capacity bound.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns a copy of the buffered events in emission order.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, t.n)
	for _, c := range t.chunks {
		out = append(out, c...)
	}
	return out
}

// Reset clears the buffer (between experiment repetitions).
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.chunks, t.n = nil, 0
	t.pvars, t.comps = nil, nil
	t.dropped = 0
	t.mu.Unlock()
}
