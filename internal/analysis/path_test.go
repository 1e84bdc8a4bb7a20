package analysis

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"symbiosys/internal/core"
)

// pathTraceBase is a fixed epoch so path tests are deterministic.
const pathTraceBase = int64(1_000_000_000)

// evseq builds Lamport orders implicitly: each event's Order is its
// position in the slice (the fabricated traces are sequential).
func evseq(evs []core.Event) []core.Event {
	for i := range evs {
		evs[i].Order = uint64(i + 1)
	}
	return evs
}

// twoHopEvents fabricates one clean two-hop request
// (cli -a_rpc-> mid -b_rpc-> leaf) with queue waits on both targets.
func twoHopEvents(reqID uint64, base int64) []core.Event {
	bcMid := core.Breadcrumb(0).Push("a_rpc")
	bcLeaf := bcMid.Push("b_rpc")
	return evseq([]core.Event{
		{RequestID: reqID, Kind: core.EvOriginStart, Timestamp: base,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bcMid)},
		// net_out 60, queue 40 → t5 at +100.
		{RequestID: reqID, Kind: core.EvTargetStart, Timestamp: base + 100,
			Entity: "mid", RPCName: "a_rpc", Breadcrumb: uint64(bcMid), QueueNanos: 40},
		// exec 100 before issuing the nested hop.
		{RequestID: reqID, Kind: core.EvOriginStart, Timestamp: base + 200,
			Entity: "mid", RPCName: "b_rpc", Breadcrumb: uint64(bcLeaf)},
		// net_out 70, queue 30 → leaf t5 at +300.
		{RequestID: reqID, Kind: core.EvTargetStart, Timestamp: base + 300,
			Entity: "leaf", RPCName: "b_rpc", Breadcrumb: uint64(bcLeaf), QueueNanos: 30},
		{RequestID: reqID, Kind: core.EvTargetEnd, Timestamp: base + 400,
			Entity: "leaf", RPCName: "b_rpc", Breadcrumb: uint64(bcLeaf), Duration: 100},
		{RequestID: reqID, Kind: core.EvOriginEnd, Timestamp: base + 500,
			Entity: "mid", RPCName: "b_rpc", Breadcrumb: uint64(bcLeaf), Duration: 300},
		// exec 100 after the nested hop returns.
		{RequestID: reqID, Kind: core.EvTargetEnd, Timestamp: base + 600,
			Entity: "mid", RPCName: "a_rpc", Breadcrumb: uint64(bcMid), Duration: 500},
		{RequestID: reqID, Kind: core.EvOriginEnd, Timestamp: base + 700,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bcMid), Duration: 700},
	})
}

func kindsOf(p *CriticalPath) []SegKind {
	out := make([]SegKind, len(p.Segments))
	for i, s := range p.Segments {
		out[i] = s.Kind
	}
	return out
}

func eqKinds(got, want []SegKind) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// extractPath is the critical path ExtractPaths finds for one request's
// events (nil when it finds none).
func extractPath(evs []core.Event) *CriticalPath {
	paths, _ := ExtractPaths(MergeTraces([]*core.TraceDump{core.NewTraceDump("e", 0, 0, evs)}))
	if len(paths) == 0 {
		return nil
	}
	return &paths[0]
}

func TestExtractPathTwoHop(t *testing.T) {
	const reqID = 0x42
	p := extractPath(twoHopEvents(reqID, pathTraceBase))
	if p == nil {
		t.Fatal("no path")
	}
	want := []SegKind{
		SegNetOut, SegQueue, // cli -> mid
		SegExec,             // mid pre-forward
		SegNetOut, SegQueue, // mid -> leaf
		SegExec,    // leaf handler
		SegNetBack, // leaf -> mid
		SegExec,    // mid post-forward
		SegNetBack, // mid -> cli
	}
	if !eqKinds(kindsOf(p), want) {
		t.Fatalf("segment kinds = %v, want %v\npath: %+v", kindsOf(p), want, p.Segments)
	}
	if p.TotalNanos != 700 {
		t.Fatalf("total = %d", p.TotalNanos)
	}
	// The decomposition must cover the whole request: segments sum to
	// the root span duration.
	var sum int64
	for _, s := range p.Segments {
		sum += s.DurNanos
	}
	if sum != 700 {
		t.Fatalf("segment sum = %d, want 700 (%+v)", sum, p.Segments)
	}
	// Spot-check attribution: root net_out excludes the queue wait.
	if p.Segments[0].DurNanos != 60 || p.Segments[1].DurNanos != 40 {
		t.Fatalf("root net_out/queue = %d/%d, want 60/40",
			p.Segments[0].DurNanos, p.Segments[1].DurNanos)
	}
	if p.Attempts != 1 || p.Failed || p.Incomplete || p.Batched {
		t.Fatalf("flags = %+v", p)
	}
	// Depths: root segments at 1, nested hop at 2.
	if p.Segments[0].Depth != 1 || p.Segments[3].Depth != 2 || p.Segments[5].Depth != 2 {
		t.Fatalf("depths wrong: %+v", p.Segments)
	}
}

// retriedEvents fabricates a request whose first attempt is dropped in
// flight (no target view, Failed terminal) and whose retry succeeds
// after a backoff gap — the margo retry loop's trace signature.
func retriedEvents(reqID uint64, base int64) []core.Event {
	bc := core.Breadcrumb(0).Push("a_rpc")
	return evseq([]core.Event{
		// Attempt 1: t1 at base, failed t14 at +200 (timeout), no
		// server events (request dropped by the fabric).
		{RequestID: reqID, Kind: core.EvOriginStart, Timestamp: base,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bc)},
		{RequestID: reqID, Kind: core.EvOriginEnd, Timestamp: base + 200,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bc), Duration: 200, Failed: true},
		// Backoff gap 100, then attempt 2 succeeds.
		{RequestID: reqID, Kind: core.EvOriginStart, Timestamp: base + 300,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bc)},
		{RequestID: reqID, Kind: core.EvTargetStart, Timestamp: base + 400,
			Entity: "srv", RPCName: "a_rpc", Breadcrumb: uint64(bc), QueueNanos: 20},
		{RequestID: reqID, Kind: core.EvTargetEnd, Timestamp: base + 500,
			Entity: "srv", RPCName: "a_rpc", Breadcrumb: uint64(bc), Duration: 100},
		{RequestID: reqID, Kind: core.EvOriginEnd, Timestamp: base + 600,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bc), Duration: 300},
	})
}

func TestExtractPathRetried(t *testing.T) {
	const reqID = 0x77
	p := extractPath(retriedEvents(reqID, pathTraceBase))
	if p == nil {
		t.Fatal("no path")
	}
	want := []SegKind{
		SegUnmatched,                             // failed attempt 1 (dropped in flight)
		SegBackoff,                               // retry wait
		SegNetOut, SegQueue, SegExec, SegNetBack, // attempt 2
	}
	if !eqKinds(kindsOf(p), want) {
		t.Fatalf("segment kinds = %v, want %v", kindsOf(p), want)
	}
	if p.Attempts != 2 {
		t.Fatalf("attempts = %d", p.Attempts)
	}
	if p.Failed {
		t.Fatal("terminal attempt succeeded; path must not be Failed")
	}
	// A failed attempt without a target view is expected, not an
	// incomplete span set.
	if p.Incomplete {
		t.Fatal("retried path wrongly marked incomplete")
	}
	if p.Segments[0].DurNanos != 200 || !p.Segments[0].Failed {
		t.Fatalf("unmatched segment = %+v", p.Segments[0])
	}
	if p.Segments[1].DurNanos != 100 {
		t.Fatalf("backoff = %d, want 100", p.Segments[1].DurNanos)
	}
	if p.TotalNanos != 600 {
		t.Fatalf("total = %d", p.TotalNanos)
	}
}

// retriedWithStolenServerEvents reproduces the dropped-response retry:
// the first attempt's request DID execute on the server (its response
// was lost), so two server spans exist; each attempt must pair with its
// own execution, not steal the other's.
func retriedWithStolenServerEvents(reqID uint64, base int64) []core.Event {
	bc := core.Breadcrumb(0).Push("a_rpc")
	return evseq([]core.Event{
		{RequestID: reqID, Kind: core.EvOriginStart, Timestamp: base,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bc)},
		{RequestID: reqID, Kind: core.EvTargetStart, Timestamp: base + 50,
			Entity: "srv", RPCName: "a_rpc", Breadcrumb: uint64(bc)},
		{RequestID: reqID, Kind: core.EvTargetEnd, Timestamp: base + 150,
			Entity: "srv", RPCName: "a_rpc", Breadcrumb: uint64(bc), Duration: 100},
		{RequestID: reqID, Kind: core.EvOriginEnd, Timestamp: base + 200,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bc), Duration: 200, Failed: true},
		{RequestID: reqID, Kind: core.EvOriginStart, Timestamp: base + 300,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bc)},
		{RequestID: reqID, Kind: core.EvTargetStart, Timestamp: base + 350,
			Entity: "srv", RPCName: "a_rpc", Breadcrumb: uint64(bc)},
		{RequestID: reqID, Kind: core.EvTargetEnd, Timestamp: base + 450,
			Entity: "srv", RPCName: "a_rpc", Breadcrumb: uint64(bc), Duration: 100},
		{RequestID: reqID, Kind: core.EvOriginEnd, Timestamp: base + 500,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bc), Duration: 200},
	})
}

func TestExtractPathRetriedDroppedResponse(t *testing.T) {
	const reqID = 0x78
	p := extractPath(retriedWithStolenServerEvents(reqID, pathTraceBase))
	if p == nil {
		t.Fatal("no path")
	}
	want := []SegKind{
		SegNetOut, SegExec, SegNetBack, // attempt 1: executed, response lost
		SegBackoff,
		SegNetOut, SegExec, SegNetBack, // attempt 2
	}
	if !eqKinds(kindsOf(p), want) {
		t.Fatalf("segment kinds = %v, want %v", kindsOf(p), want)
	}
	// Attempt 1's exec must be the FIRST server execution (starting at
	// +50), not the retry's.
	if p.Segments[1].StartNanos != pathTraceBase+50 {
		t.Fatalf("attempt 1 exec starts at %d, want base+50", p.Segments[1].StartNanos)
	}
	if p.Segments[5].StartNanos != pathTraceBase+350 {
		t.Fatalf("attempt 2 exec starts at %d, want base+350", p.Segments[5].StartNanos)
	}
}

// batchedEvents fabricates two ops of one coalesced flush sharing a
// request ID: both origin-ends carry the BatchID and the window wait.
func batchedEvents(reqID uint64, base int64) []core.Event {
	bc := core.Breadcrumb(0).Push("a_rpc")
	return evseq([]core.Event{
		// Both ops enter the window; op 1 waits 80ns for the flush.
		{RequestID: reqID, Kind: core.EvOriginStart, Timestamp: base,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bc)},
		{RequestID: reqID, Kind: core.EvOriginStart, Timestamp: base + 30,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bc)},
		{RequestID: reqID, Kind: core.EvTargetStart, Timestamp: base + 120,
			Entity: "srv", RPCName: "a_rpc", Breadcrumb: uint64(bc), QueueNanos: 10},
		{RequestID: reqID, Kind: core.EvTargetEnd, Timestamp: base + 220,
			Entity: "srv", RPCName: "a_rpc", Breadcrumb: uint64(bc), Duration: 100},
		{RequestID: reqID, Kind: core.EvTargetStart, Timestamp: base + 230,
			Entity: "srv", RPCName: "a_rpc", Breadcrumb: uint64(bc), QueueNanos: 5},
		{RequestID: reqID, Kind: core.EvTargetEnd, Timestamp: base + 300,
			Entity: "srv", RPCName: "a_rpc", Breadcrumb: uint64(bc), Duration: 70},
		// Vectored completions: both ops end when the frame returns.
		{RequestID: reqID, Kind: core.EvOriginEnd, Timestamp: base + 350,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bc), Duration: 350,
			BatchID: 9, WindowNanos: 80},
		{RequestID: reqID, Kind: core.EvOriginEnd, Timestamp: base + 360,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bc), Duration: 330,
			BatchID: 9, WindowNanos: 50},
	})
}

func TestExtractPathBatched(t *testing.T) {
	const reqID = 0x99
	p := extractPath(batchedEvents(reqID, pathTraceBase))
	if p == nil {
		t.Fatal("no path")
	}
	if !p.Batched {
		t.Fatal("path not marked batched")
	}
	// Concurrent same-breadcrumb siblings reduce to the dominant span
	// (latest end bounds completion), so exactly one attempt remains.
	if p.Attempts != 1 {
		t.Fatalf("attempts = %d", p.Attempts)
	}
	if p.Segments[0].Kind != SegBatchWindow {
		t.Fatalf("first segment = %v, want batch_window (%+v)", p.Segments[0].Kind, p.Segments)
	}
	var hasQueue, hasExec bool
	for _, s := range p.Segments {
		hasQueue = hasQueue || s.Kind == SegQueue
		hasExec = hasExec || s.Kind == SegExec
	}
	if !hasQueue || !hasExec {
		t.Fatalf("batched path missing queue/exec decomposition: %v", kindsOf(p))
	}
}

func TestExtractPathsIncompleteCounting(t *testing.T) {
	// One clean request plus one with only origin events (its target's
	// dump was lost): the incomplete one must be counted, not dropped.
	bc := core.Breadcrumb(0).Push("a_rpc")
	orphan := evseq([]core.Event{
		{RequestID: 7, Kind: core.EvOriginStart, Timestamp: pathTraceBase,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bc)},
		{RequestID: 7, Kind: core.EvOriginEnd, Timestamp: pathTraceBase + 100,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bc), Duration: 100},
	})
	ts := MergeTraces([]*core.TraceDump{
		core.NewTraceDump("a", 0, 0, twoHopEvents(1, pathTraceBase)),
		core.NewTraceDump("b", 0, 0, orphan),
	})
	paths, stats := ExtractPaths(ts)
	if stats.Requests != 2 || stats.Extracted != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Incomplete != 1 {
		t.Fatalf("incomplete = %d, want 1", stats.Incomplete)
	}
	if got := ts.IncompleteRequests(); got != 1 {
		t.Fatalf("IncompleteRequests() = %d, want 1", got)
	}
	// The orphan's path degrades to a single unmatched segment.
	var orphanPath *CriticalPath
	for i := range paths {
		if paths[i].RequestID == 7 {
			orphanPath = &paths[i]
		}
	}
	if orphanPath == nil || !orphanPath.Incomplete {
		t.Fatalf("orphan path = %+v", orphanPath)
	}
	if len(orphanPath.Segments) != 1 || orphanPath.Segments[0].Kind != SegUnmatched {
		t.Fatalf("orphan segments = %+v", orphanPath.Segments)
	}
}

func TestFoldPathsShapesAndPercentiles(t *testing.T) {
	var dumps []*core.TraceDump
	for i := 0; i < 8; i++ {
		dumps = append(dumps, core.NewTraceDump("d", 0, 0, twoHopEvents(uint64(i+1), pathTraceBase+int64(i)*10_000)))
	}
	f := BuildFlame(MergeTraces(dumps))
	if len(f.Paths) != 1 {
		t.Fatalf("shapes = %d, want 1 (%v)", len(f.Paths), f.Paths)
	}
	fp := &f.Paths[0]
	if fp.Count != 8 {
		t.Fatalf("count = %d", fp.Count)
	}
	if len(fp.Segments) != 9 {
		t.Fatalf("segments = %d", len(fp.Segments))
	}
	// Identical requests: whole-path p50 and p99 estimate ~700ns (the
	// two-per-octave histogram is coarse; accept its bucket).
	p50, p99 := fp.Total.Percentile(50), fp.Total.Percentile(99)
	if p50 < 512 || p50 > 1024 || p99 < 512 || p99 > 1024 {
		t.Fatalf("p50/p99 = %v/%v, want within the 700ns bucket", p50, p99)
	}
	if fp.Shape == "" || !strings.Contains(fp.Shape, "a_rpc") {
		t.Fatalf("shape = %q", fp.Shape)
	}
	// The dominant segment of the fold must be one of the exec
	// segments (100ns each, the largest single positions are net/exec
	// ties — just assert it's valid).
	if d := fp.DominantSegment(); d < 0 || d >= len(fp.Segments) {
		t.Fatalf("dominant = %d", d)
	}
}

func TestDiffFlamesLocalizesRegression(t *testing.T) {
	mkRun := func(queueInflate int64, n int) *Flame {
		var dumps []*core.TraceDump
		for i := 0; i < n; i++ {
			evs := twoHopEvents(uint64(i+1), pathTraceBase+int64(i)*10_000)
			if queueInflate > 0 {
				// Inflate the mid-tier queue wait: the mid t5 and
				// everything after it shift later, exactly like a
				// saturated handler pool; only the root client span
				// (whose t1 stays put) covers the extra wait.
				for j := 1; j < len(evs); j++ {
					evs[j].Timestamp += queueInflate
				}
				for j := range evs {
					if evs[j].Kind == core.EvTargetStart && evs[j].Entity == "mid" {
						evs[j].QueueNanos += queueInflate
					}
					if evs[j].Kind == core.EvOriginEnd && evs[j].Entity == "cli" {
						evs[j].Duration += queueInflate
					}
				}
			}
			dumps = append(dumps, core.NewTraceDump("d", 0, 0, evs))
		}
		return BuildFlame(MergeTraces(dumps))
	}
	before := mkRun(0, 8)
	after := mkRun(400, 8)
	d := DiffFlames(before, after)
	if len(d.Paths) != 1 {
		t.Fatalf("aligned shapes = %d (%v)", len(d.Paths), d.Paths)
	}
	pd := &d.Paths[0]
	if pd.New || pd.Gone {
		t.Fatalf("shape should align: %+v", pd)
	}
	if pd.DeltaNanos < 350 || pd.DeltaNanos > 450 {
		t.Fatalf("whole-path delta = %d, want ~400", pd.DeltaNanos)
	}
	if len(pd.Segments) == 0 {
		t.Fatal("no aligned segments")
	}
	seg := pd.Segments[0] // the segment that moved most
	for _, s := range pd.Segments[1:] {
		if max(s.DeltaNanos, -s.DeltaNanos) > max(seg.DeltaNanos, -seg.DeltaNanos) {
			seg = s
		}
	}
	if seg.Kind != SegQueue {
		t.Fatalf("dominant delta segment = %v %s (Δ%d), want queue", seg.Kind, seg.RPC, seg.DeltaNanos)
	}
	if !seg.Significant {
		t.Fatalf("queue regression not flagged significant: %+v", seg)
	}
}

func TestDiffFlamesStructuralShapes(t *testing.T) {
	// A retry chain only exists in the "after" run: its shape must
	// surface as NEW, ranked before same-shape drift.
	cleanA := MergeTraces([]*core.TraceDump{core.NewTraceDump("d", 0, 0, twoHopEvents(1, pathTraceBase))})
	faulted := MergeTraces([]*core.TraceDump{
		core.NewTraceDump("d", 0, 0, twoHopEvents(1, pathTraceBase)),
		core.NewTraceDump("d", 0, 0, retriedEvents(2, pathTraceBase)),
	})
	d := DiffFlames(BuildFlame(cleanA), BuildFlame(faulted))
	if len(d.Paths) != 2 {
		t.Fatalf("shapes = %d", len(d.Paths))
	}
	if !d.Paths[0].New {
		t.Fatalf("structural shape not ranked first: %+v", d.Paths[0])
	}
	if !strings.Contains(d.Paths[0].Shape, "backoff") {
		t.Fatalf("new shape = %q, want a retry (backoff) shape", d.Paths[0].Shape)
	}
}

func TestPathFromSpansEmpty(t *testing.T) {
	if p := PathFromSpans(1, nil); p != nil {
		t.Fatalf("expected nil path, got %+v", p)
	}
}

var benchSinkPaths []CriticalPath

func BenchmarkExtractPaths(b *testing.B) {
	var dumps []*core.TraceDump
	for i := 0; i < 64; i++ {
		dumps = append(dumps, core.NewTraceDump("d", 0, 0, twoHopEvents(uint64(i+1), pathTraceBase+int64(i)*10_000)))
	}
	ts := MergeTraces(dumps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paths, _ := ExtractPaths(ts)
		benchSinkPaths = paths
	}
}

func TestSegKindStrings(t *testing.T) {
	for k := SegKind(0); k < NumSegKinds; k++ {
		if k.String() == "?" {
			t.Fatalf("SegKind %d has no name", k)
		}
	}
	if time.Duration(0) != 0 { // keep the time import honest
		t.Fatal("unreachable")
	}
}

// TestRequestGroupingCases: RequestIDs and IncompleteRequests over
// origin-only, target-only and mixed requests, interleaved across dumps.
func TestRequestGroupingCases(t *testing.T) {
	bc := uint64(core.Breadcrumb(0).Push("a_rpc"))
	ev := func(id uint64, order uint64, kind core.EventKind) core.Event {
		return core.Event{RequestID: id, Order: order, Kind: kind, Timestamp: pathTraceBase + int64(order),
			Entity: "e", RPCName: "a_rpc", Breadcrumb: bc}
	}
	ts := MergeTraces([]*core.TraceDump{
		core.NewTraceDump("cli", 0, 0, []core.Event{
			ev(30, 1, core.EvOriginStart), // mixed
			ev(10, 1, core.EvOriginStart), // origin-only: both origin events
			ev(30, 4, core.EvOriginEnd),
			ev(50, 1, core.EvOriginEnd), // origin-only: a lone t14
			ev(10, 2, core.EvOriginEnd),
		}),
		core.NewTraceDump("srv", 0, 0, []core.Event{
			ev(20, 1, core.EvTargetStart), // target-only
			ev(30, 2, core.EvTargetStart),
			ev(20, 2, core.EvTargetEnd),
			ev(40, 1, core.EvTargetEnd), // target-only: a lone t8
			ev(30, 3, core.EvTargetEnd),
		}),
	})
	if got, want := ts.RequestIDs(), []uint64{10, 20, 30, 40, 50}; !reflect.DeepEqual(got, want) {
		t.Fatalf("RequestIDs() = %v, want %v", got, want)
	}
	if got := ts.IncompleteRequests(); got != 2 {
		t.Fatalf("IncompleteRequests() = %d, want 2 (requests 10 and 50)", got)
	}
	if got, want := ts.IncompleteRequests(), oracleIncompleteRequests(ts); got != want {
		t.Fatalf("IncompleteRequests() = %d, the map-based count %d", got, want)
	}
	walked := 0
	ts.EachRequest(func(id uint64, events int, spans []Span) {
		walked++
		if id != 30 {
			return
		}
		if events != 4 || len(spans) != 2 || spans[0].StartOrder != 1 || spans[1].StartOrder != 2 {
			t.Fatalf("request 30 has %d events and spans %+v, want 4 events and spans from orders 1 and 2", events, spans)
		}
	})
	if walked != 5 {
		t.Fatalf("EachRequest walked %d requests, want 5", walked)
	}
	var empty TraceSet
	empty.EachRequest(func(uint64, int, []Span) { walked++ })
	if empty.RequestIDs() != nil || empty.IncompleteRequests() != 0 || walked != 5 || empty.NumEvents() != 0 {
		t.Fatal("empty trace set has requests")
	}
}

// TestMergeTracesBorrowsTheDumps: the set copies no row, it indexes the
// dumps' own, one key a row; EachEvent walks every event of the dumps
// once, and EachRequest counts each once.
func TestMergeTracesBorrowsTheDumps(t *testing.T) {
	a, b := twoHopEvents(1, pathTraceBase), retriedEvents(2, pathTraceBase)
	dumps := []*core.TraceDump{core.NewTraceDump("a", 0, 0, a), core.NewTraceDump("b", 0, 0, b)}
	ts := MergeTraces(dumps)
	rows := len(dumps[0].Rows()) + len(dumps[1].Rows())
	all := append(slices.Clone(a), b...)
	if ts.NumEvents() != len(all) || len(ts.index) != rows || cap(ts.index) != rows {
		t.Fatalf("NumEvents() = %d, index %d of capacity %d, want %d events and %d rows", ts.NumEvents(), len(ts.index), cap(ts.index), len(all), rows)
	}
	var walked []core.Event
	ts.EachEvent(func(e *core.Event) { walked = append(walked, *e) })
	byOrder := func(x, y core.Event) int {
		return cmp.Or(cmp.Compare(x.RequestID, y.RequestID), cmp.Compare(x.Order, y.Order), cmp.Compare(x.Kind, y.Kind))
	}
	slices.SortFunc(walked, byOrder)
	slices.SortFunc(all, byOrder)
	if !reflect.DeepEqual(walked, all) {
		t.Fatal("EachEvent does not yield each event of the dumps once")
	}
	events := 0
	ts.EachRequest(func(id uint64, n int, spans []Span) {
		events += n
		for _, s := range spans {
			if s.RequestID != id {
				t.Fatalf("request %d walked a span of request %d", id, s.RequestID)
			}
		}
	})
	if events != len(all) {
		t.Fatalf("EachRequest counted %d events, want %d", events, len(all))
	}
	if ts.DroppedBy != nil {
		t.Fatalf("DroppedBy = %v with no drops, want nil", ts.DroppedBy)
	}
	ts = MergeTraces([]*core.TraceDump{core.NewTraceDump("a", 0, 2, a), core.NewTraceDump("b", 0, 0, nil), core.NewTraceDump("a", 0, 1, nil)})
	if ts.Dropped != 3 || len(ts.DroppedBy) != 1 || ts.DroppedBy["a"] != 3 {
		t.Fatalf("dropped = %d by %v", ts.Dropped, ts.DroppedBy)
	}
}

// synth fabricates a run's trace dumps from a seed: requests of nested
// hops up to depth 3 between a few processes, with retried attempts
// (request or response lost), batch fan-in under one request ID,
// requests seen from one side only, Lamport orders that repeat across
// processes, and dumps whose events are out of time order.
type synth struct {
	rng    *rand.Rand
	dumps  map[string][]core.Event
	clock  int64
	order  uint64
	ties   bool // Lamport orders repeat
	zeroed bool // end events leave Duration to be derived
}

var (
	synthRPCs    = []string{"put_rpc", "get_rpc", "list_rpc"}
	synthServers = []string{"srv0", "srv1", "srv2"}
)

func (s *synth) tick() int64 {
	s.clock += 1 + int64(s.rng.Intn(50))
	return s.clock
}

func (s *synth) emit(ev core.Event) {
	if !s.ties || s.rng.Intn(3) > 0 {
		s.order++
	}
	ev.Order = s.order
	s.dumps[ev.Entity] = append(s.dumps[ev.Entity], ev)
}

// hop issues one RPC from entity `from` on the callpath under parent,
// as 1-3 attempts or as a fan of concurrent siblings.
func (s *synth) hop(id uint64, from string, parent core.Breadcrumb, depth int) {
	rpc := synthRPCs[s.rng.Intn(len(synthRPCs))]
	bc := parent.Push(rpc)
	to := synthServers[s.rng.Intn(len(synthServers))]
	base := core.Event{RequestID: id, RPCName: rpc, Breadcrumb: uint64(bc)}
	end := func(ev core.Event, start int64) core.Event {
		ev.Timestamp = s.tick()
		if !s.zeroed {
			ev.Duration = ev.Timestamp - start
		}
		return ev
	}
	// serve runs one execution on the target, nested hops included.
	serve := func() {
		t5 := base
		t5.Kind, t5.Entity, t5.Peer, t5.Timestamp = core.EvTargetStart, to, from, s.tick()
		t5.QueueNanos = int64(s.rng.Intn(40))
		s.emit(t5)
		if depth < 3 {
			for n := s.rng.Intn(3); n > 0; n-- {
				s.tick()
				s.hop(id, to, bc, depth+1)
			}
		}
		t8 := base
		t8.Kind, t8.Entity, t8.Peer, t8.Failed = core.EvTargetEnd, to, from, s.rng.Intn(25) == 0
		s.emit(end(t8, t5.Timestamp))
	}
	t1 := base
	t1.Kind, t1.Entity, t1.Peer = core.EvOriginStart, from, to
	t14 := base
	t14.Kind, t14.Entity, t14.Peer = core.EvOriginEnd, from, to

	if s.rng.Intn(6) == 0 {
		// Batch fan-in: siblings enter the window one after another,
		// execute in turn, and complete together.
		width := 2 + s.rng.Intn(6)
		starts := make([]int64, width)
		for i := range starts {
			t1.Timestamp = s.tick()
			starts[i] = t1.Timestamp
			s.emit(t1)
		}
		for range starts {
			serve()
		}
		t14.BatchID = 1 + uint64(s.rng.Intn(9))
		for _, start := range starts {
			t14.WindowNanos = int64(s.rng.Intn(60))
			s.emit(end(t14, start))
		}
		return
	}
	attempts := 1
	if s.rng.Intn(4) == 0 {
		attempts += 1 + s.rng.Intn(2)
	}
	for a := 1; a <= attempts; a++ {
		failed := a < attempts || s.rng.Intn(25) == 0
		t1.Timestamp = s.tick()
		s.emit(t1)
		if !failed || s.rng.Intn(2) == 0 { // a failed attempt may have executed (response lost)
			serve()
		}
		t14.Failed = failed
		s.emit(end(t14, t1.Timestamp))
		s.tick() // backoff
	}
}

func synthTraceSet(seed int64) *TraceSet {
	s := &synth{rng: rand.New(rand.NewSource(seed)), dumps: map[string][]core.Event{}, clock: pathTraceBase}
	s.ties, s.zeroed = seed%3 == 0, seed%7 == 0
	nreq := 1 + s.rng.Intn(24)
	drop := map[uint64]func(core.Event) bool{}
	for i := 0; i < nreq; i++ {
		id := uint64(1+s.rng.Intn(3))<<32 | uint64(i)
		cli := "cli" + strconv.Itoa(s.rng.Intn(2))
		s.hop(id, cli, 0, 1)
		isOrigin := func(e core.Event) bool { return e.Kind == core.EvOriginStart || e.Kind == core.EvOriginEnd }
		switch s.rng.Intn(10) {
		case 0: // server-only: the client was unprofiled
			drop[id] = func(e core.Event) bool { return e.Entity == cli }
		case 1: // origin-only: every target's events were lost
			drop[id] = func(e core.Event) bool { return !isOrigin(e) }
		case 2: // target-only
			drop[id] = isOrigin
		}
	}
	names := make([]string, 0, len(s.dumps))
	for name := range s.dumps {
		names = append(names, name)
	}
	sort.Strings(names)
	var dumps []*core.TraceDump
	for _, name := range names {
		var evs []core.Event
		for _, e := range s.dumps[name] {
			if f := drop[e.RequestID]; f == nil || !f(e) {
				evs = append(evs, e)
			}
		}
		if seed%4 == 0 {
			s.rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
		}
		dumps = append(dumps, core.NewTraceDump(name, 0, 0, evs))
	}
	return MergeTraces(dumps)
}

// TestExtractPathsMatchesOracle: the sort-grouped, scratch-slice
// extraction returns exactly what the map-based one it replaced returns
// (kept below as the oracle), request by request and for the sweep.
func TestExtractPathsMatchesOracle(t *testing.T) {
	var saw struct{ retried, failed, incomplete, batched, deep, wide, serverOnly, originOnly int }
	for seed := int64(1); seed <= 300; seed++ {
		ts := synthTraceSet(seed)
		wantPaths, wantStats := oracleExtractPaths(ts)
		gotPaths, gotStats := ExtractPaths(ts)
		if gotStats != wantStats {
			t.Fatalf("seed %d: stats = %+v, oracle %+v", seed, gotStats, wantStats)
		}
		if !reflect.DeepEqual(gotPaths, wantPaths) {
			for i := range wantPaths {
				if i >= len(gotPaths) || !reflect.DeepEqual(gotPaths[i], wantPaths[i]) {
					t.Fatalf("seed %d: path %d differs:\n got %+v\nwant %+v", seed, i, gotPaths[i], wantPaths[i])
				}
			}
			t.Fatalf("seed %d: %d paths, oracle %d", seed, len(gotPaths), len(wantPaths))
		}
		wantReqs := oracleRequests(ts)
		walked := 0
		ts.EachRequest(func(id uint64, events int, spans []Span) {
			walked++
			want := wantReqs[id]
			if events != len(want) {
				t.Fatalf("seed %d request %#x: EachRequest counted %d events, oracle %d", seed, id, events, len(want))
			}
			wantSpans := oracleSpansOf(id, want)
			if (len(spans) > 0 || len(wantSpans) > 0) && !reflect.DeepEqual(spans, wantSpans) {
				t.Fatalf("seed %d request %#x: EachRequest's spans differ:\n got %+v\nwant %+v", seed, id, spans, wantSpans)
			}
			if got := ts.Spans(id); !reflect.DeepEqual(got, wantSpans) {
				t.Fatalf("seed %d request %#x: Spans differs:\n got %+v\nwant %+v", seed, id, got, wantSpans)
			}
		})
		if walked != len(wantReqs) {
			t.Fatalf("seed %d: EachRequest walked %d requests, oracle %d", seed, walked, len(wantReqs))
		}
		if got, want := ts.RequestIDs(), oracleRequestIDs(ts); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: RequestIDs() = %v, oracle %v", seed, got, want)
		}
		if got, want := ts.IncompleteRequests(), oracleIncompleteRequests(ts); got != want {
			t.Fatalf("seed %d: IncompleteRequests() = %d, oracle %d", seed, got, want)
		}
		for id, evs := range wantReqs {
			wantSpans := oracleSpansOf(id, evs)
			want := oraclePathFromSpans(id, wantSpans)
			if got := PathFromSpans(id, wantSpans); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d request %#x: PathFromSpans differs:\n got %+v\nwant %+v", seed, id, got, want)
			}
			if len(wantSpans) > 12 {
				saw.wide++
			}
			if wantSpans != nil && oracleIncompleteRequests(MergeTraces([]*core.TraceDump{core.NewTraceDump("e", 0, 0, evs)})) == 1 {
				saw.originOnly++
			}
		}
		for _, p := range gotPaths {
			if p.Shape != oracleShapeOf(p.Segments) {
				t.Fatalf("seed %d: shape %q, oracle %q", seed, p.Shape, oracleShapeOf(p.Segments))
			}
			for _, s := range p.Segments {
				if s.Depth >= 3 {
					saw.deep++
					break
				}
			}
			if p.Batched {
				saw.batched++
			}
			if p.Incomplete && p.Attempts == 0 {
				saw.serverOnly++
			}
		}
		saw.retried += gotStats.Retried
		saw.failed += gotStats.Failed
		saw.incomplete += gotStats.Incomplete
	}
	t.Logf("coverage: %+v", saw)
	// The generator must have produced what the test claims to cover.
	if saw.retried == 0 || saw.failed == 0 || saw.incomplete == 0 || saw.batched == 0 ||
		saw.deep == 0 || saw.wide == 0 || saw.serverOnly == 0 || saw.originOnly == 0 {
		t.Fatalf("synthetic traces missed a case: %+v", saw)
	}
}

// TestTraceSetConcurrentReaders: a set is built once and only read
// after, so several goroutines may walk it at once and each gets what a
// lone reader gets.
func TestTraceSetConcurrentReaders(t *testing.T) {
	ts := synthTraceSet(12)
	wantPaths, wantStats := ExtractPaths(ts)
	wantIDs, wantInc := ts.RequestIDs(), ts.IncompleteRequests()
	wantSpans := map[uint64][]Span{}
	for _, id := range wantIDs {
		wantSpans[id] = ts.Spans(id)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			paths, stats := ExtractPaths(ts)
			if stats != wantStats || !reflect.DeepEqual(paths, wantPaths) {
				t.Errorf("concurrent ExtractPaths differs: %+v, alone %+v", stats, wantStats)
			}
			if ids := ts.RequestIDs(); !reflect.DeepEqual(ids, wantIDs) || ts.IncompleteRequests() != wantInc {
				t.Error("concurrent RequestIDs or IncompleteRequests differs")
			}
			for _, id := range wantIDs {
				if !reflect.DeepEqual(ts.Spans(id), wantSpans[id]) {
					t.Errorf("concurrent Spans(%#x) differs", id)
				}
			}
		}()
	}
	wg.Wait()
}

// TestExtractPathsSharesShapesAndClipsSegments: paths of one sweep with
// equal shapes share the string, and appending to one path's Segments
// cannot reach the next path's in the arena.
func TestExtractPathsSharesShapesAndClipsSegments(t *testing.T) {
	ts := MergeTraces([]*core.TraceDump{
		core.NewTraceDump("a", 0, 0, twoHopEvents(1, pathTraceBase)),
		core.NewTraceDump("b", 0, 0, twoHopEvents(2, pathTraceBase+10_000)),
	})
	paths, _ := ExtractPaths(ts)
	if len(paths) != 2 {
		t.Fatalf("paths = %d", len(paths))
	}
	if unsafe.StringData(paths[0].Shape) != unsafe.StringData(paths[1].Shape) {
		t.Fatal("equal shapes of one sweep are separate strings")
	}
	want := paths[1].Segments[0]
	if cap(paths[0].Segments) != len(paths[0].Segments) {
		t.Fatalf("segments len %d cap %d, want clipped", len(paths[0].Segments), cap(paths[0].Segments))
	}
	_ = append(paths[0].Segments, PathSegment{Kind: SegBackoff})
	if paths[1].Segments[0] != want {
		t.Fatal("append to one path's segments overwrote the next path's")
	}
}

// TestHeldStructSizes pins the structs analysis holds one of per span,
// per event it expands and per path segment: a dump's span row, 80 B
// for a start and its end; an event and a path segment, each of which
// keeps its Failed flag in the padding after its Kind, so that neither
// pays a word for a bool.
func TestHeldStructSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit targets")
	}
	if got := unsafe.Sizeof(core.SpanRow{}); got != 80 {
		t.Errorf("core.SpanRow is %d B, want 80", got)
	}
	if got := unsafe.Sizeof(core.Event{}); got != 168 {
		t.Errorf("core.Event is %d B, want 168", got)
	}
	if got := unsafe.Sizeof(PathSegment{}); got != 64 {
		t.Errorf("PathSegment is %d B, want 64", got)
	}
}

// twoProcessDumps is a synthetic two-process run: requests single-hop
// requests from "cli" to "srv", four events each, the client's in one
// dump and the server's in the other.
func twoProcessDumps(requests int) []*core.TraceDump {
	bc := uint64(core.Breadcrumb(0).Push("a_rpc"))
	var cli, srv []core.Event
	for i := 0; i < requests; i++ {
		id, base := uint64(1)<<32|uint64(i), pathTraceBase+int64(i)*1000
		ev := core.Event{RequestID: id, RPCName: "a_rpc", Breadcrumb: bc}
		at := func(kind core.EventKind, order uint64, entity string, ts, dur int64) core.Event {
			e := ev
			e.Kind, e.Order, e.Entity, e.Timestamp, e.Duration = kind, order, entity, base+ts, dur
			return e
		}
		t5 := at(core.EvTargetStart, 2, "srv", 100, 0)
		t5.QueueNanos = 40
		cli = append(cli, at(core.EvOriginStart, 1, "cli", 0, 0), at(core.EvOriginEnd, 4, "cli", 400, 400))
		srv = append(srv, t5, at(core.EvTargetEnd, 3, "srv", 300, 200))
	}
	return []*core.TraceDump{core.NewTraceDump("cli", 0, 0, cli), core.NewTraceDump("srv", 0, 0, srv)}
}

// TestExtractPathsAllocations pins the point of the builder: a sweep
// allocates per arena chunk and per distinct shape, not per request.
func TestExtractPathsAllocations(t *testing.T) {
	const requests = 2048
	ts := MergeTraces(twoProcessDumps(requests))
	var stats PathStats
	allocs := testing.AllocsPerRun(5, func() { benchSinkPaths, stats = ExtractPaths(ts) })
	if stats.Extracted != requests || stats.Incomplete != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if per := allocs / requests; per >= 0.25 {
		t.Fatalf("ExtractPaths allocated %.0f times for %d requests (%.2f per request), want < 0.25", allocs, requests, per)
	}
}

// TestAnalysisPassByteBudget bounds the heap bytes one analysis pass
// allocates per request over the two-process set: merge, extract every
// critical path, count the incomplete requests. The set borrows the
// dumps' span tables and indexes their rows once in 24 B keys, one per
// span, so what is left is the index (48 B a request), the path (72 B),
// its four 64 B segments and the walks' scratch: 376.9 B a request on
// go1.24/amd64, bounded at that +10%. When the set indexed the dumps'
// events it took 426.1 B; when merging copied every 176 B event into
// the set and the index was sorted twice, 1,257.5 B.
func TestAnalysisPassByteBudget(t *testing.T) {
	const requests = 2048
	dumps := twoProcessDumps(requests)
	pass := func() int {
		ts := MergeTraces(dumps)
		paths, _ := ExtractPaths(ts)
		benchSinkPaths = paths
		return ts.IncompleteRequests()
	}
	pass()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	incomplete := pass()
	runtime.ReadMemStats(&after)
	if incomplete != 0 || len(benchSinkPaths) != requests {
		t.Fatalf("%d paths, %d incomplete", len(benchSinkPaths), incomplete)
	}
	per := float64(after.TotalAlloc-before.TotalAlloc) / requests
	t.Logf("%.1f B per request", per)
	if per > 415 {
		t.Fatalf("an analysis pass allocated %.1f B per request, want <= 415", per)
	}
}

// ---------------------------------------------------------------------
// The oracle: the request grouping, span pairing and path builder the
// analysis plane replaced, verbatim but for the names: the map-based
// grouping and path builder ExtractPaths replaced, and the event
// pairing (pathBuilder.pair) that the dumps' span tables replaced. It
// allocates per request (a map slot and slice per group, two maps and a
// heap path per build, fmt into a builder per shape) and exists only so
// TestExtractPathsMatchesOracle and TestSpanTablePairingMatchesOracle
// can hold the replacements to its results.

// oracleEach calls fn with every event of the set's dumps, dump by
// dump, each dump's in its own order.
func oracleEach(ts *TraceSet, fn func(*core.Event)) {
	for _, d := range ts.dumps {
		evs := dumpOrder(d)
		for i := range evs {
			fn(&evs[i])
		}
	}
}

// dumpOrder rebuilds a dump's events in the order they were dumped: each
// half of a row holds its event's index in the dump.
func dumpOrder(d *core.TraceDump) []core.Event {
	rows := d.Rows()
	n := 0
	for i := range rows {
		for h := range 2 {
			if rows[i].Has(h) {
				n++
			}
		}
	}
	evs := make([]core.Event, n)
	for i := range rows {
		for h := range 2 {
			if rows[i].Has(h) {
				d.Event(&rows[i], h, &evs[rows[i].Pos[h]], new(core.PVarSample), new([core.NumComponents]uint64))
			}
		}
	}
	return evs
}

// oracleRequests groups events by request ID, each group sorted by Lamport
// order (the clock-skew-tolerant ordering of the paper §IV-A2). It reads
// the dumps in merge order, dump by dump.
func oracleRequests(ts *TraceSet) map[uint64][]core.Event {
	out := make(map[uint64][]core.Event)
	oracleEach(ts, func(e *core.Event) {
		out[e.RequestID] = append(out[e.RequestID], *e)
	})
	for id := range out {
		evs := out[id]
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Order < evs[j].Order })
		out[id] = evs
	}
	return out
}

// oracleRequestIDs returns all request IDs, sorted.
func oracleRequestIDs(ts *TraceSet) []uint64 {
	seen := make(map[uint64]bool)
	var ids []uint64
	oracleEach(ts, func(e *core.Event) {
		if !seen[e.RequestID] {
			seen[e.RequestID] = true
			ids = append(ids, e.RequestID)
		}
	})
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// oracleSpansOf reconstructs the call intervals of one request from its
// Lamport-ordered events by pairing start and end events per (entity,
// breadcrumb, side): each end event closes the oldest unmatched start
// (calls from one ULT are sequential, so FIFO pairing is exact there
// and a close approximation for concurrent same-callpath calls). The
// starts still open are a short list scanned from the oldest.
func oracleSpansOf(requestID uint64, evs []core.Event) []Span {
	var open []int // indexes into evs of unmatched start events
	var spans []Span
	for i := range evs {
		e := &evs[i]
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
			s := &evs[j]
			return s.Kind == startKind && s.Breadcrumb == e.Breadcrumb && s.Entity == e.Entity
		})
		if at < 0 {
			continue // unmatched end (dropped start)
		}
		start := &evs[open[at]]
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
	slices.SortFunc(spans, func(x, y Span) int { return cmp.Compare(x.StartOrder, y.StartOrder) })
	return spans
}

// oracleExtractPaths computes the critical path of every request in the trace
// set.
func oracleExtractPaths(ts *TraceSet) ([]CriticalPath, PathStats) {
	reqs := oracleRequests(ts)
	ids := make([]uint64, 0, len(reqs))
	for id := range reqs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var stats PathStats
	stats.Requests = len(ids)
	paths := make([]CriticalPath, 0, len(ids))
	for _, id := range ids {
		p := oraclePathFromSpans(id, oracleSpansOf(id, reqs[id]))
		if p == nil {
			continue
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
		paths = append(paths, *p)
	}
	return paths, stats
}

// oraclePathBuilder carries the indexes one extraction works over.
type oraclePathBuilder struct {
	spans []Span
	// clientByBC / serverByBC index span positions per callpath,
	// sorted by start time.
	clientByBC map[core.Breadcrumb][]int
	serverByBC map[core.Breadcrumb][]int
	serverUsed []bool

	path *CriticalPath
}

// oraclePathFromSpans computes the critical path from one request's
// reconstructed spans (SpansOf output). Returns nil when the request
// has no spans at all.
func oraclePathFromSpans(requestID uint64, spans []Span) *CriticalPath {
	if len(spans) == 0 {
		return nil
	}
	b := &oraclePathBuilder{
		spans:      spans,
		clientByBC: make(map[core.Breadcrumb][]int),
		serverByBC: make(map[core.Breadcrumb][]int),
		serverUsed: make([]bool, len(spans)),
		path:       &CriticalPath{RequestID: requestID},
	}
	for i, s := range spans {
		if s.Kind == "CLIENT" {
			b.clientByBC[s.Breadcrumb] = append(b.clientByBC[s.Breadcrumb], i)
		} else {
			b.serverByBC[s.Breadcrumb] = append(b.serverByBC[s.Breadcrumb], i)
		}
		if s.BatchID != 0 {
			b.path.Batched = true
		}
	}
	byStart := func(idx []int) {
		sort.SliceStable(idx, func(i, j int) bool {
			return spans[idx[i]].StartNanos < spans[idx[j]].StartNanos
		})
	}
	for _, idx := range b.clientByBC {
		byStart(idx)
	}
	for _, idx := range b.serverByBC {
		byStart(idx)
	}

	rootBC, ok := b.rootBreadcrumb()
	if !ok {
		return nil
	}
	if attempts := b.clientByBC[rootBC]; len(attempts) > 0 {
		b.path.Attempts = b.expandHop(rootBC, attempts)
	} else {
		// Server-only view (the origin was unprofiled): expand the
		// earliest root server span's interior directly.
		si := b.serverByBC[rootBC][0]
		b.serverUsed[si] = true
		b.path.Incomplete = true
		b.expandServer(b.spans[si])
	}

	segs := b.path.Segments
	if len(segs) == 0 {
		return nil
	}
	first, last := segs[0], segs[len(segs)-1]
	b.path.TotalNanos = last.StartNanos + last.DurNanos - first.StartNanos
	b.path.Shape = oracleShapeOf(segs)
	return b.path
}

// rootBreadcrumb picks the path's root hop: the shallowest breadcrumb
// observed, earliest first on ties.
func (b *oraclePathBuilder) rootBreadcrumb() (core.Breadcrumb, bool) {
	best := core.Breadcrumb(0)
	bestDepth, bestStart := int(^uint(0)>>1), int64(0)
	found := false
	consider := func(bc core.Breadcrumb, start int64) {
		d := bc.Depth()
		if !found || d < bestDepth || (d == bestDepth && start < bestStart) {
			best, bestDepth, bestStart, found = bc, d, start, true
		}
	}
	for bc, idx := range b.clientByBC {
		consider(bc, b.spans[idx[0]].StartNanos)
	}
	if !found {
		for bc, idx := range b.serverByBC {
			consider(bc, b.spans[idx[0]].StartNanos)
		}
	}
	return best, found
}

// emit appends one segment, dropping empty intervals.
func (b *oraclePathBuilder) emit(seg PathSegment) {
	if seg.DurNanos <= 0 {
		return
	}
	b.path.Segments = append(b.path.Segments, seg)
}

// expandHop walks one hop's client attempts (retries share the
// breadcrumb; earlier attempts carry Failed terminal events) and emits
// the attempt chain with backoff gaps between attempts, returning the
// chain length (sequential attempts). Overlapping same-breadcrumb
// spans (concurrent siblings, e.g. batch fan-in under one request ID)
// are reduced to the dominant one — the span ending last bounds
// completion, so it alone is on the critical path and siblings do not
// count as retry attempts.
func (b *oraclePathBuilder) expandHop(bc core.Breadcrumb, attempts []int) int {
	chain := make([]int, 0, len(attempts))
	for _, i := range attempts {
		s := b.spans[i]
		if len(chain) == 0 {
			chain = append(chain, i)
			continue
		}
		last := b.spans[chain[len(chain)-1]]
		if s.StartNanos >= last.StartNanos+last.DurNanos {
			chain = append(chain, i) // sequential: a retry attempt
		} else if s.StartNanos+s.DurNanos > last.StartNanos+last.DurNanos {
			chain[len(chain)-1] = i // overlapping sibling: keep dominant
		}
	}
	var prevEnd int64
	for k, i := range chain {
		s := b.spans[i]
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
		if k+1 < len(chain) {
			nextStart = b.spans[chain[k+1]].StartNanos
		}
		b.expandAttempt(s, nextStart)
		prevEnd = s.StartNanos + s.DurNanos
	}
	if len(chain) > 0 {
		if term := b.spans[chain[len(chain)-1]]; term.Failed {
			b.path.Failed = true
		}
	}
	return len(chain)
}

// expandAttempt decomposes one client attempt into batch-window wait,
// request transit, queue wait, the matched server span's interior, and
// response transit. An attempt with no target view degrades to one
// unmatched segment. nextStart, when nonzero, is when the following
// retry attempt began: server executions at or past it are off-limits.
func (b *oraclePathBuilder) expandAttempt(cs Span, nextStart int64) {
	depth := cs.Breadcrumb.Depth()
	cursor := cs.StartNanos
	csEnd := cs.StartNanos + cs.DurNanos

	if cs.WindowNanos > 0 {
		w := cs.WindowNanos
		if w > cs.DurNanos {
			w = cs.DurNanos
		}
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
	b.serverUsed[si] = true
	ss := b.spans[si]
	ssEnd := ss.StartNanos + ss.DurNanos

	queue := ss.QueueNanos
	if max := ss.StartNanos - cursor; queue > max {
		queue = max
	}
	if queue < 0 {
		queue = 0
	}
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
func (b *oraclePathBuilder) expandServer(ss Span) {
	depth := ss.Breadcrumb.Depth()
	start, end := ss.StartNanos, ss.StartNanos+ss.DurNanos

	// Child hops: client spans issued by this entity whose callpath
	// extends this hop's, starting inside this span's window.
	type childGroup struct {
		bc       core.Breadcrumb
		idx      []int
		from, to int64
	}
	var children []childGroup
	for bc, idx := range b.clientByBC {
		if bc.Parent() != ss.Breadcrumb || bc == ss.Breadcrumb {
			continue
		}
		var mine []int
		var from, to int64
		for _, i := range idx {
			s := b.spans[i]
			if s.Entity != ss.Entity || s.StartNanos < start || s.StartNanos > end {
				continue
			}
			if len(mine) == 0 || s.StartNanos < from {
				from = s.StartNanos
			}
			if e := s.StartNanos + s.DurNanos; e > to {
				to = e
			}
			mine = append(mine, i)
		}
		if len(mine) > 0 {
			children = append(children, childGroup{bc: bc, idx: mine, from: from, to: to})
		}
	}
	sort.Slice(children, func(i, j int) bool {
		if children[i].from != children[j].from {
			return children[i].from < children[j].from
		}
		return children[i].bc < children[j].bc
	})

	cursor := start
	for _, ch := range children {
		if ch.from > cursor {
			b.emit(PathSegment{
				Kind: SegExec, RPC: ss.RPCName, Entity: ss.Entity,
				Depth: depth, StartNanos: cursor, DurNanos: ch.from - cursor, Failed: ss.Failed,
			})
		}
		b.expandHop(ch.bc, ch.idx)
		if ch.to > cursor {
			cursor = ch.to
		}
	}
	if end > cursor {
		b.emit(PathSegment{
			Kind: SegExec, RPC: ss.RPCName, Entity: ss.Entity,
			Depth: depth, StartNanos: cursor, DurNanos: end - cursor, Failed: ss.Failed,
		})
	}
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
func (b *oraclePathBuilder) matchServer(cs Span, beforeNanos int64) int {
	for _, i := range b.serverByBC[cs.Breadcrumb] {
		if b.serverUsed[i] {
			continue
		}
		s := b.spans[i]
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

// oracleShapeOf builds the fold key: one token per segment, encoding kind,
// hop RPC, and depth — entities are deliberately excluded so the same
// logical path through different shards/processes folds together.
func oracleShapeOf(segs []PathSegment) string {
	var sb strings.Builder
	for i, s := range segs {
		if i > 0 {
			sb.WriteByte('|')
		}
		fmt.Fprintf(&sb, "%d:%s.%s", s.Depth, s.RPC, s.Kind)
	}
	return sb.String()
}

// oracleIncompleteRequests counts requests whose span set lacks any t5/t8
// target pair despite having origin events — requests that would
// otherwise be silently skipped by span-level analyses.
func oracleIncompleteRequests(ts *TraceSet) int {
	type seen struct{ origin, target bool }
	byReq := make(map[uint64]*seen)
	ts.EachEvent(func(e *core.Event) {
		s := byReq[e.RequestID]
		if s == nil {
			s = &seen{}
			byReq[e.RequestID] = s
		}
		switch e.Kind {
		case core.EvOriginStart, core.EvOriginEnd:
			s.origin = true
		case core.EvTargetStart, core.EvTargetEnd:
			s.target = true
		}
	})
	n := 0
	for _, s := range byReq {
		if s.origin && !s.target {
			n++
		}
	}
	return n
}
