package analysis

import (
	"cmp"
	"slices"
	"strconv"

	"symbiosys/internal/core"
)

// This file implements per-request critical-path extraction: walking a
// request's Lamport-ordered span tree across hops (origin → forward →
// handler → nested forwards → response, including retry attempts and
// batch fan-in) and emitting the longest dependency chain with
// per-segment attribution. It is the request-level answer to the
// paper's "which interval bounded this request" question that the flat
// callpath profile can only answer in aggregate.

// SegKind classifies one segment of a request's critical path — the
// segment taxonomy of DESIGN.md §10.
type SegKind int8

// Critical-path segment kinds.
const (
	// SegNetOut is the request transit: origin t1 → target t5, minus
	// the queue and batch-window shares (serialization + fabric + RDMA
	// + progress-loop delivery).
	SegNetOut SegKind = iota
	// SegQueue is the handler-pool wait (t4→t5): the request's ULT was
	// spawned but no execution stream picked it up — the paper's
	// saturation signal, per request.
	SegQueue
	// SegExec is target handler execution, exclusive of nested hops.
	SegExec
	// SegNetBack is the response transit: target t8 → origin t14
	// (response serialization + fabric + origin completion delivery).
	SegNetBack
	// SegBackoff is the idle gap between a failed attempt and its
	// retry — client-side backoff wait.
	SegBackoff
	// SegBatchWindow is the client coalescer window wait: the op sat
	// batched but unsent.
	SegBatchWindow
	// SegUnmatched covers a client span with no target view: the
	// request died in flight (dropped, shed before tracing, or the
	// target's events were lost).
	SegUnmatched

	// NumSegKinds sizes per-kind arrays.
	NumSegKinds
)

// String names the segment kind.
func (k SegKind) String() string {
	switch k {
	case SegNetOut:
		return "net_out"
	case SegQueue:
		return "queue"
	case SegExec:
		return "exec"
	case SegNetBack:
		return "net_back"
	case SegBackoff:
		return "backoff"
	case SegBatchWindow:
		return "batch_window"
	case SegUnmatched:
		return "unmatched"
	}
	return "?"
}

// PathSegment is one attributed interval of a critical path.
type PathSegment struct {
	Kind SegKind
	// Failed marks segments belonging to a failed attempt. It sits
	// beside Kind so that the two share one word.
	Failed bool
	// RPC names the hop the segment belongs to; Entity the process the
	// time was observed on.
	RPC    string
	Entity string
	// Depth is the hop's breadcrumb depth (1 = root hop).
	Depth      int
	StartNanos int64
	DurNanos   int64
}

// CriticalPath is the longest dependency chain of one request.
type CriticalPath struct {
	RequestID  uint64
	TotalNanos int64
	Segments   []PathSegment
	// Shape is the fold key: the sequment sequence's (kind, rpc, depth)
	// signature, stable across runs of the same workload.
	Shape string
	// Attempts counts client attempts on the root hop (>1 = retried).
	Attempts int
	// Batched reports that at least one hop traveled in a coalesced
	// frame (a batch-window segment or a BatchID-stamped span).
	Batched bool
	// Failed marks a path whose terminal attempt ended in an error.
	Failed bool
	// Incomplete marks a path with a hop missing its target view (no
	// t5/t8 pair): attribution below that hop is a single unmatched
	// segment rather than a breakdown.
	Incomplete bool
}

// DominantSegment returns the index of the longest segment (-1 when
// empty) — "what bounded this request".
func (p *CriticalPath) DominantSegment() int {
	best, bestDur := -1, int64(-1)
	for i, s := range p.Segments {
		if s.DurNanos > bestDur {
			best, bestDur = i, s.DurNanos
		}
	}
	return best
}

// PathStats summarizes one extraction sweep.
type PathStats struct {
	// Requests is how many distinct request IDs the trace set held;
	// Extracted how many yielded a critical path.
	Requests  int
	Extracted int
	// Incomplete counts requests whose span set was missing a t5/t8
	// target pair somewhere on the path — surfaced instead of silently
	// skipped (their attribution degrades to an unmatched segment).
	Incomplete int
	// Retried and Failed count paths with >1 root attempt and paths
	// whose terminal attempt failed.
	Retried int
	Failed  int
}

// ExtractPaths computes the critical path of every request in the trace
// set. It walks the set's requests; one builder builds each in turn,
// reusing its scratch from request to request, so the sweep allocates
// per distinct path shape and per arena chunk, not per request. The
// paths' Segments are sub-slices of those chunks.
func ExtractPaths(ts *TraceSet) ([]CriticalPath, PathStats) {
	stats := PathStats{Requests: countRuns(ts.index)}
	paths := make([]CriticalPath, 0, stats.Requests)
	b := pathBuilder{chunk: min(max(len(ts.index), 16), 1024)}
	ts.eachRequest(false, func(id uint64, _ int, spans []Span) { // a path reads no PVAR
		p, ok := b.build(id, spans)
		if !ok {
			return
		}
		stats.Extracted++
		if p.Incomplete {
			stats.Incomplete++
		}
		if p.Attempts > 1 {
			stats.Retried++
		}
		if p.Failed {
			stats.Failed++
		}
		paths = append(paths, p)
	})
	return paths, stats
}

// PathFromSpans computes the critical path from one request's
// reconstructed spans (Spans output). Returns nil when the request
// has no spans at all.
func PathFromSpans(requestID uint64, spans []Span) *CriticalPath {
	var b pathBuilder
	return b.pathOf(requestID, spans)
}

func (b *pathBuilder) pathOf(requestID uint64, spans []Span) *CriticalPath {
	p, ok := b.build(requestID, spans)
	if !ok {
		return nil
	}
	return &p
}

// pathBuilder extracts critical paths one request at a time. Everything
// it indexes a request with is a slice kept from one request to the
// next and scanned linearly — a request has a few spans on a handful of
// callpaths — so building a path allocates nothing once the slices have
// grown to the largest request seen. The zero value is ready to use.
type pathBuilder struct {
	// A request's spans, and the PVAR samples they point to (gather).
	spans []Span
	pvars []core.PVarSample

	// The request being built: its spans, their positions grouped per
	// (side, callpath) in start-time order, and which server spans an
	// attempt has claimed.
	cur    []Span
	order  []int
	groups []bcGroup
	used   []bool
	// stack and kids hold what the recursive expansion needs beyond a
	// call's own frame — an attempt chain, a server span's child hops —
	// each call using the region above its caller's.
	stack []int
	kids  []childGroup

	path  CriticalPath
	segs  []PathSegment
	shape []byte

	// Per sweep: finished paths' segments live in chunks of up to chunk
	// segments (0: each path gets a slice of its own); shapes are
	// interned, so a distinct shape allocates once.
	chunk  int
	arena  []PathSegment
	shapes map[string]string
}

// bcGroup is the run order[lo:hi] of one side's spans on one callpath.
type bcGroup struct {
	bc     core.Breadcrumb
	client bool
	lo, hi int
}

// childGroup is one nested hop of a server span: the client spans
// stack[lo:hi] issued on callpath bc, spanning [from, to].
type childGroup struct {
	bc       core.Breadcrumb
	lo, hi   int
	from, to int64
}

func isClient(s *Span) bool { return s.Kind == "CLIENT" }

// build computes the critical path of the request whose spans these are
// (Spans output); ok is false when there is none.
func (b *pathBuilder) build(requestID uint64, spans []Span) (CriticalPath, bool) {
	if len(spans) == 0 {
		return CriticalPath{}, false
	}
	b.cur = spans
	b.path = CriticalPath{RequestID: requestID}
	b.segs = b.segs[:0]
	b.used = slices.Grow(b.used[:0], len(spans))[:len(spans)]
	clear(b.used)

	// Index span positions per (side, callpath), client side first,
	// each group by start time with ties in span order.
	b.order = b.order[:0]
	for i := range spans {
		b.order = append(b.order, i)
		if spans[i].BatchID != 0 {
			b.path.Batched = true
		}
	}
	slices.SortFunc(b.order, func(x, y int) int {
		sx, sy := &spans[x], &spans[y]
		switch cx, cy := isClient(sx), isClient(sy); {
		case cx && !cy:
			return -1
		case cy && !cx:
			return 1
		}
		if c := cmp.Compare(sx.Breadcrumb, sy.Breadcrumb); c != 0 {
			return c
		}
		if c := cmp.Compare(sx.StartNanos, sy.StartNanos); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	b.groups = b.groups[:0]
	for lo := 0; lo < len(b.order); {
		first := &spans[b.order[lo]]
		hi := lo + 1
		for hi < len(b.order) {
			s := &spans[b.order[hi]]
			if s.Breadcrumb != first.Breadcrumb || isClient(s) != isClient(first) {
				break
			}
			hi++
		}
		b.groups = append(b.groups, bcGroup{bc: first.Breadcrumb, client: isClient(first), lo: lo, hi: hi})
		lo = hi
	}

	// The root hop is the shallowest callpath observed from the client
	// side (from the server side when the origin was unprofiled), the
	// earliest on ties, then the smallest breadcrumb.
	root := b.groups[0]
	for _, g := range b.groups[1:] {
		if g.client != root.client {
			break
		}
		gd, rd := g.bc.Depth(), root.bc.Depth()
		if gd < rd || (gd == rd && spans[b.order[g.lo]].StartNanos < spans[b.order[root.lo]].StartNanos) {
			root = g
		}
	}
	if root.client {
		b.path.Attempts = b.expandHop(root.bc, b.order[root.lo:root.hi])
	} else {
		// Server-only view: expand the earliest root server span's
		// interior directly.
		si := b.order[root.lo]
		b.used[si] = true
		b.path.Incomplete = true
		b.expandServer(&spans[si])
	}

	if len(b.segs) == 0 {
		return CriticalPath{}, false
	}
	first, last := &b.segs[0], &b.segs[len(b.segs)-1]
	b.path.TotalNanos = last.StartNanos + last.DurNanos - first.StartNanos
	b.path.Shape = b.internShape()
	b.path.Segments = b.keepSegments()
	return b.path, true
}

// group returns the positions, in start order, of one side's spans on
// one callpath.
func (b *pathBuilder) group(bc core.Breadcrumb, client bool) []int {
	for _, g := range b.groups {
		if g.bc == bc && g.client == client {
			return b.order[g.lo:g.hi]
		}
	}
	return nil
}

// keepSegments moves the finished path's segments out of the scratch
// into the sweep's arena and returns them, capacity clipped so that an
// append by the caller cannot reach the next path's.
func (b *pathBuilder) keepSegments() []PathSegment {
	n := len(b.segs)
	if cap(b.arena)-len(b.arena) < n {
		b.arena = make([]PathSegment, 0, max(n, b.chunk))
	}
	lo := len(b.arena)
	b.arena = append(b.arena, b.segs...)
	return b.arena[lo : lo+n : lo+n]
}

// internShape builds the fold key: one token per segment, encoding
// kind, hop RPC, and depth — entities are deliberately excluded so the
// same logical path through different shards/processes folds together.
// Paths of one sweep with equal keys share one string.
func (b *pathBuilder) internShape() string {
	buf := b.shape[:0]
	for i := range b.segs {
		s := &b.segs[i]
		if i > 0 {
			buf = append(buf, '|')
		}
		buf = strconv.AppendInt(buf, int64(s.Depth), 10)
		buf = append(buf, ':')
		buf = append(buf, s.RPC...)
		buf = append(buf, '.')
		buf = append(buf, s.Kind.String()...)
	}
	b.shape = buf
	if shape, ok := b.shapes[string(buf)]; ok {
		return shape
	}
	if b.shapes == nil {
		b.shapes = make(map[string]string)
	}
	shape := string(buf)
	b.shapes[shape] = shape
	return shape
}

// emit appends one segment, dropping empty intervals.
func (b *pathBuilder) emit(seg PathSegment) {
	if seg.DurNanos <= 0 {
		return
	}
	b.segs = append(b.segs, seg)
}

// expandHop walks one hop's client attempts (retries share the
// breadcrumb; earlier attempts carry Failed terminal events) and emits
// the attempt chain with backoff gaps between attempts, returning the
// chain length (sequential attempts). Overlapping same-breadcrumb
// spans (concurrent siblings, e.g. batch fan-in under one request ID)
// are reduced to the dominant one — the span ending last bounds
// completion, so it alone is on the critical path and siblings do not
// count as retry attempts. attempts may alias b.order or a lower region
// of b.stack; the chain goes on top of the stack.
func (b *pathBuilder) expandHop(bc core.Breadcrumb, attempts []int) int {
	base := len(b.stack)
	for _, i := range attempts {
		s := &b.cur[i]
		if len(b.stack) == base {
			b.stack = append(b.stack, i)
			continue
		}
		last := &b.cur[b.stack[len(b.stack)-1]]
		if s.StartNanos >= last.StartNanos+last.DurNanos {
			b.stack = append(b.stack, i) // sequential: a retry attempt
		} else if s.StartNanos+s.DurNanos > last.StartNanos+last.DurNanos {
			b.stack[len(b.stack)-1] = i // overlapping sibling: keep dominant
		}
	}
	n := len(b.stack) - base
	var prevEnd int64
	for k := 0; k < n; k++ {
		s := &b.cur[b.stack[base+k]]
		if k > 0 {
			if gap := s.StartNanos - prevEnd; gap > 0 {
				b.emit(PathSegment{
					Kind: SegBackoff, RPC: s.RPCName, Entity: s.Entity,
					Depth: bc.Depth(), StartNanos: prevEnd, DurNanos: gap,
				})
			}
		}
		// A server execution starting after the next attempt began
		// belongs to that attempt, not this one — the bound keeps a
		// failed attempt (dropped request, no target view) from
		// stealing its retry's server span.
		var nextStart int64
		if k+1 < n {
			nextStart = b.cur[b.stack[base+k+1]].StartNanos
		}
		b.expandAttempt(s, nextStart)
		prevEnd = s.StartNanos + s.DurNanos
	}
	if n > 0 && b.cur[b.stack[base+n-1]].Failed {
		b.path.Failed = true
	}
	b.stack = b.stack[:base]
	return n
}

// expandAttempt decomposes one client attempt into batch-window wait,
// request transit, queue wait, the matched server span's interior, and
// response transit. An attempt with no target view degrades to one
// unmatched segment. nextStart, when nonzero, is when the following
// retry attempt began: server executions at or past it are off-limits.
func (b *pathBuilder) expandAttempt(cs *Span, nextStart int64) {
	depth := cs.Breadcrumb.Depth()
	cursor := cs.StartNanos
	csEnd := cs.StartNanos + cs.DurNanos

	if cs.WindowNanos > 0 {
		w := min(cs.WindowNanos, cs.DurNanos)
		b.emit(PathSegment{
			Kind: SegBatchWindow, RPC: cs.RPCName, Entity: cs.Entity,
			Depth: depth, StartNanos: cursor, DurNanos: w, Failed: cs.Failed,
		})
		cursor += w
	}

	si := b.matchServer(cs, nextStart)
	if si < 0 {
		// No target view: the whole remainder is one unmatched segment
		// (a failed attempt that died in flight, or lost target events).
		b.emit(PathSegment{
			Kind: SegUnmatched, RPC: cs.RPCName, Entity: cs.Entity,
			Depth: depth, StartNanos: cursor, DurNanos: csEnd - cursor, Failed: cs.Failed,
		})
		if !cs.Failed {
			// A successful attempt should have a target view; its
			// absence means the span set is incomplete.
			b.path.Incomplete = true
		}
		return
	}
	b.used[si] = true
	ss := &b.cur[si]
	ssEnd := ss.StartNanos + ss.DurNanos

	queue := max(min(ss.QueueNanos, ss.StartNanos-cursor), 0)
	if net := ss.StartNanos - queue - cursor; net > 0 {
		b.emit(PathSegment{
			Kind: SegNetOut, RPC: cs.RPCName, Entity: cs.Entity,
			Depth: depth, StartNanos: cursor, DurNanos: net, Failed: cs.Failed,
		})
	}
	b.emit(PathSegment{
		Kind: SegQueue, RPC: cs.RPCName, Entity: ss.Entity,
		Depth: depth, StartNanos: ss.StartNanos - queue, DurNanos: queue, Failed: cs.Failed,
	})

	b.expandServer(ss)

	if net := csEnd - ssEnd; net > 0 {
		b.emit(PathSegment{
			Kind: SegNetBack, RPC: cs.RPCName, Entity: cs.Entity,
			Depth: depth, StartNanos: ssEnd, DurNanos: net, Failed: cs.Failed,
		})
	}
}

// expandServer decomposes a server span's interior: handler execution
// interleaved with nested hops issued by the handler. Calls from one
// handler ULT are sequential, so the interior decomposes linearly; the
// nested hops recurse through expandHop.
func (b *pathBuilder) expandServer(ss *Span) {
	depth := ss.Breadcrumb.Depth()
	start, end := ss.StartNanos, ss.StartNanos+ss.DurNanos

	// Child hops: client spans issued by this entity whose callpath
	// extends this hop's, starting inside this span's window.
	stackBase, kidBase := len(b.stack), len(b.kids)
	for _, g := range b.groups {
		if !g.client || g.bc.Parent() != ss.Breadcrumb || g.bc == ss.Breadcrumb {
			continue
		}
		lo := len(b.stack)
		var from, to int64
		for _, i := range b.order[g.lo:g.hi] {
			s := &b.cur[i]
			if s.Entity != ss.Entity || s.StartNanos < start || s.StartNanos > end {
				continue
			}
			if len(b.stack) == lo || s.StartNanos < from {
				from = s.StartNanos
			}
			to = max(to, s.StartNanos+s.DurNanos)
			b.stack = append(b.stack, i)
		}
		if len(b.stack) > lo {
			b.kids = append(b.kids, childGroup{bc: g.bc, lo: lo, hi: len(b.stack), from: from, to: to})
		}
	}
	slices.SortFunc(b.kids[kidBase:], func(x, y childGroup) int {
		if c := cmp.Compare(x.from, y.from); c != 0 {
			return c
		}
		return cmp.Compare(x.bc, y.bc)
	})

	cursor := start
	for k, n := kidBase, len(b.kids); k < n; k++ {
		ch := b.kids[k] // by value: the nested hop may grow b.kids
		if ch.from > cursor {
			b.emit(PathSegment{
				Kind: SegExec, RPC: ss.RPCName, Entity: ss.Entity,
				Depth: depth, StartNanos: cursor, DurNanos: ch.from - cursor, Failed: ss.Failed,
			})
		}
		b.expandHop(ch.bc, b.stack[ch.lo:ch.hi])
		cursor = max(cursor, ch.to)
	}
	if end > cursor {
		b.emit(PathSegment{
			Kind: SegExec, RPC: ss.RPCName, Entity: ss.Entity,
			Depth: depth, StartNanos: cursor, DurNanos: end - cursor, Failed: ss.Failed,
		})
	}
	b.stack, b.kids = b.stack[:stackBase], b.kids[:kidBase]
}

// matchServer finds the unused target view of one client attempt: the
// first unused server span of the same breadcrumb whose Lamport order
// follows the attempt's start (the t5 merge ticks past the t1 order, so
// a server execution can never precede the attempt that caused it).
// beforeNanos, when nonzero, excludes server spans starting at or after
// it — they belong to a later retry attempt. (The bound is a timestamp,
// not an order: a dropped response leaves the retry's t1 concurrent
// with the first execution's t5, so Lamport order alone cannot split
// attempts. It misattributes only when cross-process clock skew
// exceeds the retry backoff gap.)
func (b *pathBuilder) matchServer(cs *Span, beforeNanos int64) int {
	for _, i := range b.group(cs.Breadcrumb, false) {
		if b.used[i] {
			continue
		}
		s := &b.cur[i]
		if s.StartOrder < cs.StartOrder {
			continue
		}
		if beforeNanos > 0 && s.StartNanos >= beforeNanos {
			continue
		}
		return i
	}
	return -1
}

// IncompleteRequests counts requests whose span set lacks any t5/t8
// target pair despite having origin events — requests that would
// otherwise be silently skipped by span-level analyses.
func (ts *TraceSet) IncompleteRequests() int {
	n := 0
	for lo := 0; lo < len(ts.index); {
		hi := runEnd(ts.index, lo)
		var origin, target bool
		for _, k := range ts.index[lo:hi] {
			d := ts.dumps[k.dump]
			r := &d.Rows()[k.row]
			for h := range 2 {
				if r.Has(h) {
					switch d.Kind(r, h) {
					case core.EvOriginStart, core.EvOriginEnd:
						origin = true
					case core.EvTargetStart, core.EvTargetEnd:
						target = true
					}
				}
			}
		}
		if origin && !target {
			n++
		}
		lo = hi
	}
	return n
}
