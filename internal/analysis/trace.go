package analysis

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"

	"symbiosys/internal/core"
)

// TraceSet is the merged view over all per-process trace dumps. It
// borrows the dumps it was merged from: it holds no copy of their
// events, only one index over them, so a caller must not change the
// dumps or their Events after merging. Nothing in a set changes once
// MergeTraces returns it, so several goroutines may read one set.
type TraceSet struct {
	Dropped uint64
	// DroppedBy attributes dropped events to the process that dropped
	// them, so truncated traces are flagged per entity.
	DroppedBy map[string]uint64

	dumps []*core.TraceDump
	// index places every event of the dumps once, sorted by request ID,
	// then Lamport order (the clock-skew-tolerant ordering of the paper
	// §IV-A2), then dump and position: the order a stable sort by Lamport
	// order gives the dumps' concatenation. Each request is one run.
	index []reqKey
}

// reqKey places one event in the request index: its request ID and
// Lamport order, and where it lives (ts.dumps[dump].Events[pos]).
type reqKey struct {
	req, order uint64
	dump, pos  uint32
}

// MergeTraces combines trace dumps from every process, indexing their
// events by request. DroppedBy stays nil until a dump reports drops.
func MergeTraces(dumps []*core.TraceDump) *TraceSet {
	ts := &TraceSet{dumps: dumps}
	n := 0
	for _, d := range dumps {
		n += len(d.Events)
		ts.Dropped += d.Dropped
		if d.Dropped > 0 {
			if ts.DroppedBy == nil {
				ts.DroppedBy = make(map[string]uint64)
			}
			ts.DroppedBy[d.Entity] += d.Dropped
		}
	}
	if n > 0 {
		ts.index = make([]reqKey, 0, n)
	}
	for di, d := range dumps {
		for i := range d.Events {
			ts.index = append(ts.index, reqKey{d.Events[i].RequestID, d.Events[i].Order, uint32(di), uint32(i)})
		}
	}
	slices.SortFunc(ts.index, func(a, b reqKey) int {
		if c := cmp.Compare(a.req, b.req); c != 0 {
			return c
		}
		if c := cmp.Compare(a.order, b.order); c != 0 {
			return c
		}
		return cmp.Or(cmp.Compare(a.dump, b.dump), cmp.Compare(a.pos, b.pos))
	})
	return ts
}

// NumEvents returns how many events the set holds.
func (ts *TraceSet) NumEvents() int { return len(ts.index) }

// EachEvent calls fn with every event of the set, dump by dump, each
// dump's in its own order. The events are the dumps' own.
func (ts *TraceSet) EachEvent(fn func(*core.Event)) {
	for _, d := range ts.dumps {
		for i := range d.Events {
			fn(&d.Events[i])
		}
	}
}

// runEnd returns the end of the run of one request's keys that starts
// at lo.
func runEnd(keys []reqKey, lo int) int {
	hi := lo + 1
	for hi < len(keys) && keys[hi].req == keys[lo].req {
		hi++
	}
	return hi
}

// countRuns returns the number of distinct requests in keys.
func countRuns(keys []reqKey) int {
	n := 0
	for lo := 0; lo < len(keys); lo = runEnd(keys, lo) {
		n++
	}
	return n
}

// EachRequest calls fn once per request, in ascending request ID, with
// its events in Lamport order (ties in merge order) and its spans, as
// Spans reconstructs them. Both slices are scratch the walk reuses for
// the next request, so fn must not keep them; the events are the
// dumps' own.
func (ts *TraceSet) EachRequest(fn func(id uint64, evs []*core.Event, spans []Span)) {
	// Room for a few hops; a larger request grows the scratch.
	b := pathBuilder{evs: make([]*core.Event, 0, 16), open: make([]int, 0, 8), spans: make([]Span, 0, 8)}
	for lo := 0; lo < len(ts.index); {
		hi := runEnd(ts.index, lo)
		id := ts.index[lo].req
		b.gather(ts, ts.index[lo:hi])
		fn(id, b.evs, b.pair(id, b.evs))
		lo = hi
	}
}

// gather points b.evs at the events of keys.
func (b *pathBuilder) gather(ts *TraceSet, keys []reqKey) {
	b.evs = b.evs[:0]
	for _, k := range keys {
		b.evs = append(b.evs, &ts.dumps[k.dump].Events[k.pos])
	}
}

// RequestIDs returns all request IDs, sorted.
func (ts *TraceSet) RequestIDs() []uint64 {
	var ids []uint64
	ts.EachRequest(func(id uint64, _ []*core.Event, _ []Span) { ids = append(ids, id) })
	return ids
}

// Span is one reconstructed call interval within a distributed request.
type Span struct {
	RequestID  uint64
	Breadcrumb core.Breadcrumb
	RPCName    string
	Entity     string
	Kind       string // "CLIENT" (origin view) or "SERVER" (target view)
	StartNanos int64
	DurNanos   int64
	StartOrder uint64
	// Failed marks a span closed by an error terminal event (canceled
	// or failed origin attempt, error response / handler panic on the
	// target) — closed, but not a successful execution.
	Failed bool
	// QueueNanos is the handler-pool wait (t4→t5) carried on SERVER
	// spans; WindowNanos the coalescer window wait carried on batched
	// CLIENT spans. BatchID groups members of one vectored forward.
	QueueNanos  int64
	WindowNanos int64
	BatchID     uint64
	Sys         core.SysSample
	PVars       *core.PVarSample
}

// Spans reconstructs the call intervals of one request from its
// Lamport-ordered events by pairing start and end events per (entity,
// breadcrumb, side): each end event closes the oldest unmatched start
// (calls from one ULT are sequential, so FIFO pairing is exact there
// and a close approximation for concurrent same-callpath calls).
func (ts *TraceSet) Spans(requestID uint64) []Span {
	lo, _ := slices.BinarySearchFunc(ts.index, requestID, func(k reqKey, id uint64) int { return cmp.Compare(k.req, id) })
	hi := lo
	for hi < len(ts.index) && ts.index[hi].req == requestID {
		hi++
	}
	var b pathBuilder
	b.gather(ts, ts.index[lo:hi])
	return b.pair(requestID, b.evs)
}

// pair is Spans over one request's events, into the builder's reused
// span storage. The starts still open are a short list scanned from the
// oldest (a request has a few spans, and few of them open at once), not
// a map per request.
func (b *pathBuilder) pair(requestID uint64, evs []*core.Event) []Span {
	open := b.open[:0] // indexes into evs of unmatched start events
	spans := b.spans[:0]
	for i, e := range evs {
		var startKind core.EventKind
		switch e.Kind {
		case core.EvOriginStart, core.EvTargetStart:
			open = append(open, i)
			continue
		case core.EvOriginEnd:
			startKind = core.EvOriginStart
		case core.EvTargetEnd:
			startKind = core.EvTargetStart
		default:
			continue
		}
		at := slices.IndexFunc(open, func(j int) bool {
			s := evs[j]
			return s.Kind == startKind && s.Breadcrumb == e.Breadcrumb && s.Entity == e.Entity
		})
		if at < 0 {
			continue // unmatched end (dropped start)
		}
		start := evs[open[at]]
		open = slices.Delete(open, at, at+1)
		kind := "SERVER"
		if e.Kind == core.EvOriginEnd {
			kind = "CLIENT"
		}
		dur := e.Duration
		if dur == 0 {
			dur = e.Timestamp - start.Timestamp
		}
		spans = append(spans, Span{
			RequestID:  requestID,
			Breadcrumb: core.Breadcrumb(e.Breadcrumb),
			RPCName:    e.RPCName,
			Entity:     e.Entity,
			Kind:       kind,
			StartNanos: start.Timestamp,
			DurNanos:   dur,
			StartOrder: start.Order,
			Failed:     e.Failed,
			// Queue wait rides the start (t5) event, window wait
			// and batch identity the end (t14) event.
			QueueNanos:  start.QueueNanos,
			WindowNanos: e.WindowNanos,
			BatchID:     e.BatchID,
			Sys:         e.Sys,
			PVars:       e.PVars,
		})
	}
	// Not a stable sort: spans with equal start orders come out in the
	// order the sort.Slice call this replaces left them in (both are the
	// library's pdqsort, which is deterministic).
	slices.SortFunc(spans, func(x, y Span) int { return cmp.Compare(x.StartOrder, y.StartOrder) })
	b.open, b.spans = open, spans
	return spans
}

// ZipkinSpan is the Zipkin v2 JSON span format the paper's adapter
// module emits for visualization (§V-A3).
type ZipkinSpan struct {
	TraceID       string            `json:"traceId"`
	ID            string            `json:"id"`
	ParentID      string            `json:"parentId,omitempty"`
	Name          string            `json:"name"`
	Kind          string            `json:"kind,omitempty"`
	Timestamp     int64             `json:"timestamp"` // microseconds
	Duration      int64             `json:"duration"`  // microseconds
	LocalEndpoint map[string]string `json:"localEndpoint"`
	Tags          map[string]string `json:"tags,omitempty"`
}

// Zipkin converts one request's spans to Zipkin v2 JSON objects. Client
// spans parent the server spans of the same hop; nested hops parent on
// the client span of their caller, so the service structure renders as
// the Figure 5 Gantt chart.
func (ts *TraceSet) Zipkin(requestID uint64) []ZipkinSpan {
	spans := ts.Spans(requestID)
	traceID := fmt.Sprintf("%016x", requestID)

	// Assign IDs and remember the client span per breadcrumb (for
	// parenting); with repeated same-breadcrumb calls the k-th server
	// span pairs with the k-th client span.
	ids := make([]string, len(spans))
	clientSeen := make(map[core.Breadcrumb][]int)
	for i, s := range spans {
		ids[i] = fmt.Sprintf("%016x", spanIDHash(requestID, uint64(s.Breadcrumb), uint64(i)))
		if s.Kind == "CLIENT" {
			clientSeen[s.Breadcrumb] = append(clientSeen[s.Breadcrumb], i)
		}
	}
	parentOf := func(i int) string {
		s := spans[i]
		if s.Kind == "SERVER" {
			// Parent on the matching client span of the same hop.
			if idxs := clientSeen[s.Breadcrumb]; len(idxs) > 0 {
				best := idxs[0]
				for _, j := range idxs {
					if spans[j].StartOrder <= s.StartOrder {
						best = j
					}
				}
				return ids[best]
			}
			return ""
		}
		// Client span: parent on its caller's client span (the parent
		// breadcrumb), picking the most recent one issued before it.
		parentBC := s.Breadcrumb.Parent()
		if parentBC == 0 {
			return ""
		}
		if idxs := clientSeen[parentBC]; len(idxs) > 0 {
			best := -1
			for _, j := range idxs {
				if spans[j].StartOrder <= s.StartOrder {
					best = j
				}
			}
			if best >= 0 {
				return ids[best]
			}
		}
		return ""
	}

	out := make([]ZipkinSpan, 0, len(spans))
	for i, s := range spans {
		z := ZipkinSpan{
			TraceID:       traceID,
			ID:            ids[i],
			ParentID:      parentOf(i),
			Name:          s.RPCName,
			Kind:          s.Kind,
			Timestamp:     s.StartNanos / 1000,
			Duration:      s.DurNanos / 1000,
			LocalEndpoint: map[string]string{"serviceName": s.Entity},
			Tags: map[string]string{
				"breadcrumb":   s.Breadcrumb.String(),
				"pool_blocked": fmt.Sprint(s.Sys.PoolBlocked),
			},
		}
		if s.PVars != nil {
			z.Tags["ofi_events_read"] = fmt.Sprint(s.PVars.OFIEventsRead)
		}
		out = append(out, z)
	}
	return out
}

// WriteZipkin writes one request's trace as a Zipkin v2 JSON array.
func (ts *TraceSet) WriteZipkin(w io.Writer, requestID uint64) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ts.Zipkin(requestID))
}

func spanIDHash(a, b, c uint64) uint64 {
	v := a*0x9e3779b97f4a7c15 ^ b*0xff51afd7ed558ccd ^ c*0xc4ceb9fe1a85ec53
	v ^= v >> 31
	if v == 0 {
		v = 1
	}
	return v
}

// BlockedSample is one point of the Figure 10 scatter: when a request
// began executing on a target and how many ULTs were blocked there.
type BlockedSample struct {
	TimestampNanos int64
	Blocked        int64
	Runnable       int64
	Entity         string
}

// BlockedULTSeries extracts the Figure 10 scatter for one RPC name from
// target-start events (the t5 sample of the Argobots pool).
func (ts *TraceSet) BlockedULTSeries(rpcName string) []BlockedSample {
	var out []BlockedSample
	ts.EachEvent(func(e *core.Event) {
		if e.Kind == core.EvTargetStart && (rpcName == "" || e.RPCName == rpcName) {
			out = append(out, BlockedSample{
				TimestampNanos: e.Timestamp,
				Blocked:        e.Sys.PoolBlocked,
				Runnable:       e.Sys.PoolRunnable,
				Entity:         e.Entity,
			})
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].TimestampNanos < out[j].TimestampNanos })
	return out
}

// OFISample is one point of the Figure 12 series: the number of OFI
// completion events read by the progress loop, sampled at t14.
type OFISample struct {
	TimestampNanos int64
	EventsRead     uint64
	Entity         string
}

// OFIEventsReadSeries extracts the Figure 12 series from origin-end
// events (entity == "" selects all origins).
func (ts *TraceSet) OFIEventsReadSeries(entity string) []OFISample {
	var out []OFISample
	ts.EachEvent(func(e *core.Event) {
		if e.Kind != core.EvOriginEnd || e.PVars == nil || entity != "" && e.Entity != entity {
			return
		}
		out = append(out, OFISample{
			TimestampNanos: e.Timestamp,
			EventsRead:     e.PVars.OFIEventsRead,
			Entity:         e.Entity,
		})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].TimestampNanos < out[j].TimestampNanos })
	return out
}
