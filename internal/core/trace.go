package core

import "fmt"

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
	RequestID uint64    `json:"request_id"`
	Order     uint64    `json:"order"` // Lamport counter
	Kind      EventKind `json:"kind"`
	// Failed marks a terminal event whose attempt ended in an error:
	// a canceled/failed origin attempt, or a target span closed by a
	// handler panic or error response. Stitchers use it to close spans
	// without treating them as successful executions. It sits beside
	// Kind so that the two share one word.
	Failed     bool   `json:"failed,omitempty"`
	Timestamp  int64  `json:"ts_ns"` // local wall clock, ns since epoch
	Entity     string `json:"entity"`
	Peer       string `json:"peer,omitempty"`
	RPCName    string `json:"rpc"`
	Breadcrumb uint64 `json:"breadcrumb"`
	Duration   int64  `json:"dur_ns,omitempty"` // span length for end events
	// BatchID groups the per-op spans of one coalesced (vectored)
	// forward: every member's chain shares the batch ID while keeping
	// its own request ID, so analysis can attribute time per logical op
	// and still see which ops traveled together. Zero means unbatched.
	BatchID uint64 `json:"batch_id,omitempty"`
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

// A shard's trace chunks double from chunkMin bytes to chunkMax, so a shard
// that records twenty events does not pay for a large chunk — a
// deployment's first events land inside the run they measure, and 48
// shards times a full-size chunk of never-touched memory was a few
// milliseconds of page faults — and a busy one allocates rarely. The
// unfilled tail of a shard's last chunk is the steady-state cost, which
// is why chunkMax is some hundreds of events and no more.
const (
	chunkMin = 1 << 10
	chunkMax = 32 << 10
)

// traceBuf is the one recorder of trace records: a Profiler shard's
// bounded trace buffer, and what NewTraceDump records a dump's events
// through before laying its tables and records out as the file. It
// stores each event as the trace dump's record (tracedump.go: flags
// word, varint IDs, timestamp delta against the previous event, shape
// and sample numbers, presence-masked annotations; for an end whose
// start the buffer's span memo holds, a fold into that start) appended
// to byte chunks, and expands the records into Events only when they
// are read. A record is a sixth of the Event, PVarSample and component
// array it stands for, and a chunk of bytes holds no pointers, so the
// garbage collector never scans the trace however long it grows.
// Emitters hand over annotations that may live on their stack; encoding
// them is the copy.
//
// The shard's lock guards every field. Chunks are filled in place and
// never rewritten or reused, and the tables' entries only grow between
// resets, so a snapshot of the slice headers taken under the lock can be
// decoded outside it, across later emits and across a reset.
type traceBuf struct {
	full       [][]byte // filled chunks, oldest first
	cur        []byte   // the chunk being filled; a record never spans two
	n          int      // events held
	npvars     int      // how many of them carry a PVAR sample
	ncomps     int      // and a component array
	rows, vals int      // the span rows and values the records make (tracedump.go)
	prev       int64    // timestamp of the last event held: the next delta's base
	cap        int
	dropped    uint64

	traceTables // the shard's, in first-use order
}

// shape is what the events of a run keep repeating: kind, callpath and
// the numbers of the entity, peer and RPC strings in the table beside
// it. A run has tens of shapes; its events have one each.
type shape struct {
	bc   uint64
	strs [3]uint32
	kind EventKind
}

// sample is the process-wide part of an event's SysSample. The pool
// counters change from event to event and stay in the record; the heap
// size and goroutine count move with the sampler's refresh, so
// consecutive events share them.
type sample struct {
	heap       uint64
	goroutines int
}

func sampleOf(s *SysSample) sample { return sample{s.HeapBytes, s.Goroutines} }

// traceTables numbers the strings, shapes and samples of a stream of
// events, each table in first-use order. Beside the tables it keeps, per
// callpath, the event fields resolved to a shape last, and the sample
// resolved last: the events of one shard (or one sink) repeat
// themselves, and the repeat is found by a few comparisons instead of a
// search. Its span memo decides which end events fold into their starts.
type traceTables struct {
	strs    numbering[string]
	shapes  numbering[shape]
	samples numbering[sample]

	memo       shapeMemo
	lastSample struct {
		s  sample
		i1 uint32 // index + 1; 0 while nothing is cached
	}
	spans spanMemo
}

// memoSpans is how many span starts a spanMemo remembers. A process's
// spans overlap: between a start and its end come the other requests in
// flight (at most 64 per HEPnOS loader, a few hundred during a batched
// sdskv run), and a start is folded into only while it is among the last
// memoSpans. Every shard of every Profiler holds a memo, 5 KiB at this
// size, so it is no larger than a HEPnOS run needs.
const memoSpans = 128

// spanMemo is the one fold rule of the trace formats. A span is a start
// (t1, t5) and the end (t14, t8) that closes it; an end whose start is
// still remembered open is written as a fold: how many events back its
// start is, and what differs from it. The shard's records, the dump and
// the JSONL stream each run a memo over their own event sequence, and
// their readers replay it, so writer and reader agree on every fold.
// It is a ring of the last memoSpans starts, open or closed, searched
// newest first. It holds no pointers and allocates nothing: a start is
// known by its request ID and the number its shape has in the tables of
// the memo's user.
type spanMemo struct {
	ids   [memoSpans]uint64 // the starts' request IDs, apart for the search
	spans [memoSpans]openSpan
	n     uint64 // starts seen; the next goes to n % memoSpans
}

// openSpan is a remembered start: its shape and sample numbers, and what
// its end's fold is taken against.
type openSpan struct {
	ts     int64
	order  uint64
	pos    uint64 // the start's index in its sequence
	shape1 uint32 // shape number + 1; 0 once the span is closed
	sample uint32
}

// spanPartner maps a start kind to the end kind that closes it and back:
// t1 and t14, t5 and t8.
func spanPartner(k EventKind) EventKind { return EvOriginEnd - k }

func isSpanStart(k EventKind) bool { return k == EvOriginStart || k == EvTargetStart }
func isSpanEnd(k EventKind) bool   { return k == EvTargetEnd || k == EvOriginEnd }

// open remembers *ev, if it is a start, as the event at index pos of the
// sequence, of the given shape and sample numbers.
func (m *spanMemo) open(ev *Event, pos uint64, shape, sample uint64) {
	if !isSpanStart(ev.Kind) {
		return
	}
	i := m.n % memoSpans
	m.n++
	m.ids[i] = ev.RequestID
	// Field by field: a struct literal is built on the stack and copied
	// in wider moves than it was written with, which stalls the stores.
	sp := &m.spans[i]
	sp.ts, sp.order, sp.pos, sp.shape1, sp.sample = ev.Timestamp, ev.Order, pos, uint32(shape)+1, uint32(sample)
}

// close closes and returns the newest open start of the span *ev ends —
// the same request ID and, in the shapes and strings the starts' numbers
// index, the partner kind, breadcrumb, entity, peer and RPC — which the
// end folds into. It returns nil if ev is no end or its start is not
// remembered open.
func (m *spanMemo) close(ev *Event, strs []string, shapes []shape) *openSpan {
	if !isSpanEnd(ev.Kind) {
		return nil
	}
	start := spanPartner(ev.Kind)
	for i := m.n; i > 0 && i+memoSpans > m.n; i-- {
		j := (i - 1) % memoSpans
		if m.ids[j] != ev.RequestID || m.spans[j].shape1 == 0 {
			continue
		}
		sp := &m.spans[j]
		if sh := &shapes[sp.shape1-1]; sh.kind == start && sh.bc == ev.Breadcrumb &&
			strs[sh.strs[0]] == ev.Entity && strs[sh.strs[1]] == ev.Peer && strs[sh.strs[2]] == ev.RPCName {
			sp.shape1 = 0
			return sp
		}
	}
	return nil
}

// numbering numbers distinct values in first-use order, each once. A
// small table is searched in place, and only one that outgrows
// smallTable entries gets a map: a shard's tables are new with every
// deployment and reset, and so cost little more than their entries. A
// shard's samples, refreshed every 10 ms, reach the map after 2.56 s;
// at 64 entries, the 0.7 s deployments of a benchmark rep built one per
// shard, 1% of what an sdskv op allocates.
type numbering[T comparable] struct {
	vals  []T
	index map[T]uint32 // nil while the table is small
}

const smallTable = 256

// number returns v's number, adding it on first use.
func (n *numbering[T]) number(v T) uint32 {
	if n.index != nil {
		if i, ok := n.index[v]; ok {
			return i
		}
	} else {
		for i := range n.vals {
			if n.vals[i] == v {
				return uint32(i)
			}
		}
	}
	i := n.add(v)
	switch {
	case n.index != nil:
		n.index[v] = i
	case len(n.vals) > smallTable:
		n.index = make(map[T]uint32, 2*len(n.vals))
		for k, w := range n.vals {
			n.index[w] = uint32(k)
		}
	}
	return i
}

// add appends v and returns its number.
func (n *numbering[T]) add(v T) uint32 {
	if n.vals == nil {
		n.vals = make([]T, 0, 16)
	}
	n.vals = append(n.vals, v)
	return uint32(len(n.vals) - 1)
}

// reset empties the table. A map keeps its storage; the values are
// dropped, not reused, because a snapshot may still be reading them.
func (n *numbering[T]) reset() {
	n.vals = nil
	clear(n.index)
}

// shapeMemo remembers the event fields last resolved to a shape and the
// number the table's user gave it, in a slot picked by kind and
// breadcrumb: the callpaths a shard serves interleave, and each keeps
// its slot.
type shapeMemo [8]struct {
	bc   uint64
	strs [3]string
	kind EventKind
	n1   uint32 // number + 1; 0 while nothing is cached
}

func (m *shapeMemo) slot(ev *Event) int {
	return int((ev.Breadcrumb*0x9e3779b97f4a7c15 + uint64(uint8(ev.Kind))) >> 61)
}

// get returns the number remembered for ev's shape, if ev repeats it.
func (m *shapeMemo) get(ev *Event) (uint64, bool) {
	e := &m[m.slot(ev)]
	if e.n1 != 0 && e.kind == ev.Kind && e.bc == ev.Breadcrumb &&
		e.strs[0] == ev.Entity && e.strs[1] == ev.Peer && e.strs[2] == ev.RPCName {
		return uint64(e.n1 - 1), true
	}
	return 0, false
}

func (m *shapeMemo) put(ev *Event, n uint64) {
	e := &m[m.slot(ev)]
	e.bc, e.strs, e.kind, e.n1 = ev.Breadcrumb, [3]string{ev.Entity, ev.Peer, ev.RPCName}, ev.Kind, uint32(n+1)
}

// reset empties the tables for a new stream.
func (t *traceTables) reset() {
	t.strs.reset()
	t.shapes.reset()
	t.samples.reset()
	t.memo = shapeMemo{}
	t.lastSample.i1 = 0
	t.spans = spanMemo{}
}

// internSample returns s's index in the sample table, adding it on first
// use.
func (t *traceTables) internSample(s sample) uint64 {
	l := &t.lastSample
	if l.i1 == 0 || l.s != s {
		l.s, l.i1 = s, t.samples.number(s)+1
	}
	return uint64(l.i1 - 1)
}

// shapeOf returns the index of ev's shape, adding it and its strings on
// first use.
func (t *traceTables) shapeOf(ev *Event) uint64 {
	if i, ok := t.memo.get(ev); ok {
		return i
	}
	i := uint64(t.shapes.number(shape{bc: ev.Breadcrumb, kind: ev.Kind,
		strs: [3]uint32{t.strs.number(ev.Entity), t.strs.number(ev.Peer), t.strs.number(ev.RPCName)}}))
	t.memo.put(ev, i)
	return i
}

// emit appends *ev's record, annotated with *pv and *comps (either may
// be nil; ev.PVars and ev.Components are not read). Nothing is retained
// but the event's three strings. An event past the capacity is counted
// as dropped.
func (t *traceBuf) emit(ev *Event, pv *PVarSample, comps *[NumComponents]uint64) {
	if t.n >= t.cap {
		t.dropped++
		return
	}
	pos := uint64(t.n)
	sp := t.spans.close(ev, t.strs.vals, t.shapes.vals)
	if room := t.cur[len(t.cur):cap(t.cur)]; len(room) >= len(eventRecord{}) {
		// The chunk has room for the longest record: write it in place.
		n := t.record((*eventRecord)(room), ev, pv, comps, pos, sp)
		t.cur = t.cur[:len(t.cur)+n]
	} else {
		var rec eventRecord
		n := t.record(&rec, ev, pv, comps, pos, sp)
		if len(t.cur)+n > cap(t.cur) {
			if t.cur != nil {
				t.full = append(t.full, t.cur)
			}
			t.cur = make([]byte, 0, min(max(2*cap(t.cur), chunkMin), chunkMax))
		}
		t.cur = append(t.cur, rec[:n]...)
	}
	t.prev = ev.Timestamp
	t.n++
	if pv != nil {
		t.npvars++
	}
	if comps != nil {
		t.ncomps++
	}
}

// record writes into r the record of *ev, the event at index pos of the
// buffer, folded into sp if the span memo closed that start, and returns
// its length.
func (t *traceBuf) record(r *eventRecord, ev *Event, pv *PVarSample, comps *[NumComponents]uint64, pos uint64, sp *openSpan) int {
	sample := t.internSample(sampleOf(&ev.Sys))
	var n, vals int
	if sp == nil {
		shape := t.shapeOf(ev)
		t.spans.open(ev, pos, shape, sample)
		n, vals = r.full(ev, pv, comps, t.prev, shape, sample)
		t.rows++
	} else {
		n, vals = r.fold(ev, pv, comps, pos-sp.pos, sp, sample)
		if ev.Order < sp.order {
			t.rows++ // an end before its start in Lamport order has a row of its own
		}
	}
	t.vals += vals
	return n
}

// traceSnapshot is a traceBuf's content at one instant: immutable, so it
// is decoded without the shard's lock.
type traceSnapshot struct {
	full              [][]byte
	cur               []byte
	strs              []string
	shapes            []shape
	samples           []sample
	n, npvars, ncomps int
}

func (t *traceBuf) snapshot() traceSnapshot {
	return traceSnapshot{
		full: t.full[:len(t.full):len(t.full)], cur: t.cur,
		strs: t.strs.vals, shapes: t.shapes.vals, samples: t.samples.vals,
		n: t.n, npvars: t.npvars, ncomps: t.ncomps,
	}
}

// decodeSnapshots expands the snapshots' records, in order, into one
// event array, one PVAR sample array and one component array that the
// events' PVars and Components point into.
func decodeSnapshots(snaps []traceSnapshot) []Event {
	var n, npvars, ncomps int
	for i := range snaps {
		n += snaps[i].n
		npvars += snaps[i].npvars
		ncomps += snaps[i].ncomps
	}
	if n == 0 {
		return nil
	}
	out, pvars, comps := make([]Event, n), make([]PVarSample, npvars), make([][NumComponents]uint64, ncomps)
	var r traceReader
	next, first := 0, 0 // the next event, and the snapshot's first
	var t recordTables
	var h halfRec
	chunk := func(c []byte) {
		for r.b, r.off = c, 0; r.off < len(c) && next < n; next++ {
			if r.record(&h, &t, uint64(next-first)); r.err != nil {
				return
			}
			var pv *PVarSample
			var cs *[NumComponents]uint64
			if h.flags&(1<<hPVars) != 0 {
				pv, pvars = &pvars[0], pvars[1:]
			}
			if h.flags&(1<<hComps) != 0 {
				cs, comps = &comps[0], comps[1:]
			}
			sh := &t.shapes[h.shape]
			strs := [3]string{t.strs[sh.strs[0]], t.strs[sh.strs[1]], t.strs[sh.strs[2]]}
			setEvent(&out[next], h.req, h.ts, h.order, sh, &strs, t.samples[h.sample], h.flags, h.vals[:h.n], pv, cs)
		}
	}
	for i := range snaps {
		s := &snaps[i]
		// Every entry counts as used already: a shard's tables are in
		// first-use order by construction, there is nothing to check.
		t = recordTables{strs: s.strs, shapes: s.shapes, samples: s.samples,
			used: [numTables]uint64{uint64(len(s.strs)), uint64(len(s.shapes)), uint64(len(s.samples))}}
		r.ts, first = 0, next
		for _, c := range s.full {
			chunk(c)
		}
		chunk(s.cur)
	}
	if r.err != nil || next != n || r.off != len(r.b) {
		// The records are this process's own writing.
		panic(fmt.Sprintf("core: trace buffer corrupt at event %d of %d: %v", next, n, r.err))
	}
	return out
}

// reset empties the buffer, keeping its capacity.
func (t *traceBuf) reset() {
	t.full, t.cur = nil, nil
	t.traceTables.reset()
	t.n, t.npvars, t.ncomps, t.rows, t.vals, t.prev, t.dropped = 0, 0, 0, 0, 0, 0, 0
}
