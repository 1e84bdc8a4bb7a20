package analysis

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"symbiosys/internal/core"
)

// TraceSet is the merged view over all per-process trace dumps. It
// borrows the dumps it was merged from: it holds no copy of their span
// tables, only one index over their rows, so a caller must not change
// the dumps after merging. Nothing in a set changes once MergeTraces
// returns it, so several goroutines may read one.
type TraceSet struct {
	Dropped uint64
	// DroppedBy attributes dropped events to the process that dropped
	// them, so truncated traces are flagged per entity.
	DroppedBy map[string]uint64

	dumps  []*core.TraceDump
	events int
	// index places every row of the dumps once, sorted by request ID,
	// then by the Lamport order of the row's end (its start's, if it has
	// none), then dump and row: the ends in the clock-skew-tolerant
	// order of the paper §IV-A2, which the spans were paired in. Each
	// request is one run.
	index []reqKey
}

// reqKey places one row in the request index: its request ID and
// Lamport order, and where it lives (ts.dumps[dump].Rows()[row]).
type reqKey struct {
	req, order uint64
	dump, row  uint32
}

// MergeTraces combines trace dumps from every process, indexing their
// rows by request. DroppedBy stays nil until a dump reports drops.
func MergeTraces(dumps []*core.TraceDump) *TraceSet {
	ts := &TraceSet{dumps: dumps}
	n := 0
	for _, d := range dumps {
		n += len(d.Rows())
		if dropped := d.Dropped(); dropped > 0 {
			ts.Dropped += dropped
			if ts.DroppedBy == nil {
				ts.DroppedBy = make(map[string]uint64)
			}
			ts.DroppedBy[d.Entity()] += dropped
		}
	}
	if n > 0 {
		ts.index = make([]reqKey, 0, n)
	}
	for di, d := range dumps {
		rows := d.Rows()
		for i := range rows {
			r, h := &rows[i], core.SpanEnd
			if !r.Has(core.SpanEnd) {
				h = core.SpanStart
			} else if r.Has(core.SpanStart) {
				ts.events++
			}
			ts.events++
			ts.index = append(ts.index, reqKey{r.RequestID, r.Order[h], uint32(di), uint32(i)})
		}
	}
	slices.SortFunc(ts.index, func(a, b reqKey) int {
		if c := cmp.Compare(a.req, b.req); c != 0 {
			return c
		}
		if c := cmp.Compare(a.order, b.order); c != 0 {
			return c
		}
		return cmp.Or(cmp.Compare(a.dump, b.dump), cmp.Compare(a.row, b.row))
	})
	return ts
}

// NumEvents returns how many events the set holds.
func (ts *TraceSet) NumEvents() int { return ts.events }

// EachEvent calls fn with every event of the set, dump by dump, row by
// row, a row's start before its end. The event is scratch the walk
// reuses for the next, so fn must not keep it.
func (ts *TraceSet) EachEvent(fn func(*core.Event)) {
	var ev core.Event
	var pv core.PVarSample
	for _, d := range ts.dumps {
		rows := d.Rows()
		for i := range rows {
			for h := range 2 {
				if rows[i].Has(h) {
					d.Event(&rows[i], h, &ev, &pv, nil)
					fn(&ev)
				}
			}
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
// how many events it has and its spans, as Spans returns them. The
// spans are scratch the walk reuses for the next request, so fn must
// not keep them.
func (ts *TraceSet) EachRequest(fn func(id uint64, events int, spans []Span)) {
	ts.eachRequest(true, fn)
}

// eachRequest is EachRequest, but for pvars false its spans carry no
// PVAR sample.
func (ts *TraceSet) eachRequest(pvars bool, fn func(id uint64, events int, spans []Span)) {
	var b pathBuilder
	for lo := 0; lo < len(ts.index); {
		hi := runEnd(ts.index, lo)
		events := b.gather(ts, ts.index[lo:hi], pvars)
		fn(ts.index[lo].req, events, b.spans)
		lo = hi
	}
}

// gather sets b.spans to the spans of the rows of keys, one request's,
// and returns how many events the rows hold. The spans are in the order
// of their starts' Lamport orders, a sort of the order the rows' ends
// have in the index (not a stable one: spans with equal start orders
// come out as the library's pdqsort leaves them, which is
// deterministic). Their PVAR samples are copied only if pvars.
func (b *pathBuilder) gather(ts *TraceSet, keys []reqKey, pvars bool) (events int) {
	b.spans = b.spans[:0]
	if pvars {
		b.pvars = slices.Grow(b.pvars[:0], len(keys))[:len(keys)]
	}
	for _, k := range keys {
		d := ts.dumps[k.dump]
		r := &d.Rows()[k.row]
		if !r.Has(core.SpanStart) || !r.Has(core.SpanEnd) {
			events++
			continue
		}
		events += 2
		b.spans = append(b.spans, Span{})
		var pv *core.PVarSample
		if pvars {
			pv = &b.pvars[len(b.spans)-1]
		}
		d.Span(r, &b.spans[len(b.spans)-1], pv)
	}
	slices.SortFunc(b.spans, func(x, y Span) int { return cmp.Compare(x.StartOrder, y.StartOrder) })
	return events
}

// RequestIDs returns all request IDs, sorted.
func (ts *TraceSet) RequestIDs() []uint64 {
	var ids []uint64
	for lo := 0; lo < len(ts.index); lo = runEnd(ts.index, lo) {
		ids = append(ids, ts.index[lo].req)
	}
	return ids
}

// Span is one reconstructed call interval within a distributed request:
// a row of a dump's span table that pairs a start with its end.
type Span = core.Span

// Spans returns the call intervals of one request: the rows of its
// dumps' span tables that pair a start with its end (core.SpanRow), in
// start order.
func (ts *TraceSet) Spans(requestID uint64) []Span {
	lo, _ := slices.BinarySearchFunc(ts.index, requestID, func(k reqKey, id uint64) int { return cmp.Compare(k.req, id) })
	hi := lo
	for hi < len(ts.index) && ts.index[hi].req == requestID {
		hi++
	}
	var b pathBuilder
	b.gather(ts, ts.index[lo:hi], true)
	return b.spans
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
	// Ordered by every field, so that points of one timestamp come out
	// the same whatever order the dumps' rows yield them in.
	slices.SortFunc(out, func(a, b BlockedSample) int {
		return cmp.Or(cmp.Compare(a.TimestampNanos, b.TimestampNanos), cmp.Compare(a.Entity, b.Entity),
			cmp.Compare(a.Blocked, b.Blocked), cmp.Compare(a.Runnable, b.Runnable))
	})
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
	slices.SortFunc(out, func(a, b OFISample) int { // by every field, as BlockedULTSeries
		return cmp.Or(cmp.Compare(a.TimestampNanos, b.TimestampNanos), cmp.Compare(a.Entity, b.Entity), cmp.Compare(a.EventsRead, b.EventsRead))
	})
	return out
}
