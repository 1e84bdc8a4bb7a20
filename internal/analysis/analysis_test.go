package analysis

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"symbiosys/internal/core"
)

// mkDump builds a profile dump with one origin and one target entry.
func mkDump(entity string, bc core.Breadcrumb, peer string, count uint64, cum time.Duration) *core.ProfileDump {
	var comps [core.NumComponents]uint64
	comps[core.CompOriginExec] = uint64(cum)
	comps[core.CompHandler] = uint64(cum) / 10
	comps[core.CompTargetExec] = uint64(cum) / 2
	stats := core.CallStats{
		Count: count, CumNanos: uint64(cum),
		MinNanos: uint64(cum) / count, MaxNanos: uint64(cum) / count,
		Components: comps,
	}
	return &core.ProfileDump{
		Entity: entity,
		Names: map[uint16]string{
			core.Hash16("a_rpc"): "a_rpc",
			core.Hash16("b_rpc"): "b_rpc",
		},
		Origin: []core.DumpEntry{{BC: uint64(bc), Peer: peer, Stats: stats}},
		Target: []core.DumpEntry{{BC: uint64(bc), Peer: peer, Stats: stats}},
	}
}

func TestMergeAndDominantOrdering(t *testing.T) {
	bcA := core.Breadcrumb(0).Push("a_rpc")
	bcB := core.Breadcrumb(0).Push("b_rpc")
	dumps := []*core.ProfileDump{
		mkDump("p0", bcA, "srv", 10, 100*time.Millisecond),
		mkDump("p1", bcA, "srv", 10, 200*time.Millisecond),
		mkDump("p2", bcB, "srv", 50, 50*time.Millisecond),
	}
	m := Merge(dumps)
	rows := m.DominantCallpaths(0)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Name != "a_rpc" || rows[0].CumNanos != uint64(300*time.Millisecond) {
		t.Fatalf("top row = %+v", rows[0])
	}
	if rows[0].Count != 20 {
		t.Fatalf("count = %d", rows[0].Count)
	}
	if rows[0].OriginDist["p0"] != 10 || rows[0].OriginDist["p1"] != 10 {
		t.Fatalf("origin dist = %v", rows[0].OriginDist)
	}
	// topN limiting.
	if got := m.DominantCallpaths(1); len(got) != 1 || got[0].Name != "a_rpc" {
		t.Fatalf("top1 = %+v", got)
	}
}

func TestCumulativeTargetExecution(t *testing.T) {
	bc := core.Breadcrumb(0).Push("a_rpc")
	m := Merge([]*core.ProfileDump{mkDump("p0", bc, "c0", 4, 40*time.Millisecond)})
	total, comps := m.CumulativeTargetExecution(bc)
	if comps[core.CompHandler] != uint64(4*time.Millisecond) {
		t.Fatalf("handler comp = %d", comps[core.CompHandler])
	}
	if total == 0 {
		t.Fatal("total zero")
	}
}

// buildTrace fabricates a two-hop request trace: client -> mid -> leaf.
func buildTrace() (*TraceSet, uint64) {
	const reqID = 0x100000001
	bcMid := core.Breadcrumb(0).Push("a_rpc")
	bcLeaf := bcMid.Push("b_rpc")
	base := time.Now().UnixNano()
	evs := []core.Event{
		{RequestID: reqID, Order: 1, Kind: core.EvOriginStart, Timestamp: base,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bcMid)},
		{RequestID: reqID, Order: 2, Kind: core.EvTargetStart, Timestamp: base + 100,
			Entity: "mid", RPCName: "a_rpc", Breadcrumb: uint64(bcMid),
			Sys: core.SysSample{PoolBlocked: 3}},
		{RequestID: reqID, Order: 3, Kind: core.EvOriginStart, Timestamp: base + 200,
			Entity: "mid", RPCName: "b_rpc", Breadcrumb: uint64(bcLeaf)},
		{RequestID: reqID, Order: 4, Kind: core.EvTargetStart, Timestamp: base + 300,
			Entity: "leaf", RPCName: "b_rpc", Breadcrumb: uint64(bcLeaf),
			Sys: core.SysSample{PoolBlocked: 7}},
		{RequestID: reqID, Order: 5, Kind: core.EvTargetEnd, Timestamp: base + 400,
			Entity: "leaf", RPCName: "b_rpc", Breadcrumb: uint64(bcLeaf), Duration: 100},
		{RequestID: reqID, Order: 6, Kind: core.EvOriginEnd, Timestamp: base + 500,
			Entity: "mid", RPCName: "b_rpc", Breadcrumb: uint64(bcLeaf), Duration: 300,
			PVars: &core.PVarSample{OFIEventsRead: 16}},
		{RequestID: reqID, Order: 7, Kind: core.EvTargetEnd, Timestamp: base + 600,
			Entity: "mid", RPCName: "a_rpc", Breadcrumb: uint64(bcMid), Duration: 500},
		{RequestID: reqID, Order: 8, Kind: core.EvOriginEnd, Timestamp: base + 700,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bcMid), Duration: 700,
			PVars: &core.PVarSample{OFIEventsRead: 4}},
	}
	return MergeTraces([]*core.TraceDump{core.NewTraceDump("all", 0, 0, evs)}), reqID
}

func TestSpansPairing(t *testing.T) {
	ts, reqID := buildTrace()
	spans := ts.Spans(reqID)
	if len(spans) != 4 {
		t.Fatalf("spans = %d, want 4", len(spans))
	}
	// Order: client a_rpc, server a_rpc, client b_rpc, server b_rpc by
	// start order.
	if spans[0].Kind != "CLIENT" || spans[0].RPCName != "a_rpc" {
		t.Fatalf("span0 = %+v", spans[0])
	}
	if spans[1].Kind != "SERVER" || spans[1].Entity != "mid" {
		t.Fatalf("span1 = %+v", spans[1])
	}
	if spans[3].Kind != "SERVER" || spans[3].Entity != "leaf" || spans[3].DurNanos != 100 {
		t.Fatalf("span3 = %+v", spans[3])
	}
}

func TestZipkinStructure(t *testing.T) {
	ts, reqID := buildTrace()
	zs := ts.Zipkin(reqID)
	if len(zs) != 4 {
		t.Fatalf("zipkin spans = %d", len(zs))
	}
	byName := map[string][]ZipkinSpan{}
	for _, z := range zs {
		byName[z.Name+"/"+z.Kind] = append(byName[z.Name+"/"+z.Kind], z)
	}
	rootClient := byName["a_rpc/CLIENT"][0]
	if rootClient.ParentID != "" {
		t.Fatalf("root span has parent %q", rootClient.ParentID)
	}
	serverA := byName["a_rpc/SERVER"][0]
	if serverA.ParentID != rootClient.ID {
		t.Fatal("server a_rpc not parented on client a_rpc")
	}
	clientB := byName["b_rpc/CLIENT"][0]
	if clientB.ParentID != rootClient.ID {
		t.Fatal("nested client b_rpc not parented on client a_rpc")
	}
	serverB := byName["b_rpc/SERVER"][0]
	if serverB.ParentID != clientB.ID {
		t.Fatal("server b_rpc not parented on client b_rpc")
	}
	// All spans share the trace ID; JSON export is valid.
	var buf bytes.Buffer
	if err := ts.WriteZipkin(&buf, reqID); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid zipkin JSON: %v", err)
	}
	if len(decoded) != 4 {
		t.Fatalf("decoded %d spans", len(decoded))
	}
}

func TestBlockedULTSeries(t *testing.T) {
	ts, _ := buildTrace()
	all := ts.BlockedULTSeries("")
	if len(all) != 2 {
		t.Fatalf("series = %d", len(all))
	}
	only := ts.BlockedULTSeries("b_rpc")
	if len(only) != 1 || only[0].Blocked != 7 || only[0].Entity != "leaf" {
		t.Fatalf("filtered series = %+v", only)
	}
	// Sorted by timestamp.
	if all[0].TimestampNanos > all[1].TimestampNanos {
		t.Fatal("series unsorted")
	}
}

func TestOFIEventsReadSeries(t *testing.T) {
	ts, _ := buildTrace()
	all := ts.OFIEventsReadSeries("")
	if len(all) != 2 {
		t.Fatalf("series = %d", len(all))
	}
	mid := ts.OFIEventsReadSeries("mid")
	if len(mid) != 1 || mid[0].EventsRead != 16 {
		t.Fatalf("mid series = %+v", mid)
	}
}

// TestSeriesOfTiedTimestamps: points of one timestamp come out in the
// same order whichever order the dumps are merged in.
func TestSeriesOfTiedTimestamps(t *testing.T) {
	var dumps []*core.TraceDump
	for i, entity := range []string{"c", "a", "b"} {
		id, bc := uint64(0x100000001+i), uint64(core.Breadcrumb(0).Push("a_rpc"))
		dumps = append(dumps, core.NewTraceDump(entity, 0, 0, []core.Event{
			{RequestID: id, Order: 1, Kind: core.EvOriginStart, Timestamp: 100, Entity: entity, RPCName: "a_rpc", Breadcrumb: bc},
			{RequestID: id, Order: 2, Kind: core.EvTargetStart, Timestamp: 500, Entity: entity, RPCName: "a_rpc", Breadcrumb: bc,
				Sys: core.SysSample{PoolBlocked: int64(i)}},
			{RequestID: id, Order: 3, Kind: core.EvOriginEnd, Timestamp: 500, Entity: entity, RPCName: "a_rpc", Breadcrumb: bc,
				Duration: 400, PVars: &core.PVarSample{OFIEventsRead: uint64(i)}},
		}))
	}
	fwd, rev := MergeTraces(dumps), MergeTraces([]*core.TraceDump{dumps[2], dumps[1], dumps[0]})
	blocked, ofi := fwd.BlockedULTSeries(""), fwd.OFIEventsReadSeries("")
	if len(blocked) != 3 || blocked[0].Entity != "a" || blocked[2].Entity != "c" {
		t.Fatalf("blocked series = %+v", blocked)
	}
	if len(ofi) != 3 || ofi[0].Entity != "a" || ofi[2].Entity != "c" {
		t.Fatalf("OFI series = %+v", ofi)
	}
	if again := rev.BlockedULTSeries(""); !reflect.DeepEqual(again, blocked) {
		t.Errorf("blocked series depends on the dumps' order:\n%+v\n%+v", blocked, again)
	}
	if again := rev.OFIEventsReadSeries(""); !reflect.DeepEqual(again, ofi) {
		t.Errorf("OFI series depends on the dumps' order:\n%+v\n%+v", ofi, again)
	}
}

func TestRequestsSortedByLamport(t *testing.T) {
	ts, reqID := buildTrace()
	seen := 0
	ts.EachRequest(func(id uint64, events int, spans []Span) {
		if id != reqID {
			return
		}
		seen = events
		for i := 1; i < len(spans); i++ {
			if spans[i-1].StartOrder > spans[i].StartOrder {
				t.Fatal("spans not in Lamport start order")
			}
		}
	})
	if seen == 0 {
		t.Fatalf("no events for request %#x", reqID)
	}
	ids := ts.RequestIDs()
	if len(ids) != 1 || ids[0] != reqID {
		t.Fatalf("ids = %v", ids)
	}
}

func TestUnaccountedComputation(t *testing.T) {
	bc := core.Breadcrumb(0).Push("a_rpc")
	var comps [core.NumComponents]uint64
	comps[core.CompOriginExec] = uint64(100 * time.Millisecond)
	comps[core.CompInputSer] = uint64(time.Millisecond)
	comps[core.CompOriginCB] = uint64(2 * time.Millisecond)
	originStats := core.CallStats{Count: 10, CumNanos: comps[core.CompOriginExec], Components: comps}

	var tcomps [core.NumComponents]uint64
	tcomps[core.CompHandler] = uint64(5 * time.Millisecond)
	tcomps[core.CompTargetExec] = uint64(40 * time.Millisecond)
	tcomps[core.CompTargetCB] = uint64(2 * time.Millisecond)
	targetStats := core.CallStats{Count: 10, CumNanos: tcomps[core.CompTargetExec], Components: tcomps}

	dump := &core.ProfileDump{
		Entity: "cli",
		Names:  map[uint16]string{core.Hash16("a_rpc"): "a_rpc"},
		Origin: []core.DumpEntry{{BC: uint64(bc), Peer: "srv", Stats: originStats}},
		Target: []core.DumpEntry{{BC: uint64(bc), Peer: "cli", Stats: targetStats}},
	}
	m := Merge([]*core.ProfileDump{dump})
	rep := m.Unaccounted(bc, time.Millisecond) // 10 calls x 1ms network
	wantAccounted := uint64(50 * time.Millisecond)
	if rep.Accounted != wantAccounted {
		t.Fatalf("accounted = %v", time.Duration(rep.Accounted))
	}
	wantUnaccounted := uint64(100*time.Millisecond) - wantAccounted - uint64(10*time.Millisecond)
	if rep.Unaccount != wantUnaccounted {
		t.Fatalf("unaccounted = %v, want %v",
			time.Duration(rep.Unaccount), time.Duration(wantUnaccounted))
	}
	if f := rep.UnaccountedFraction(); f < 0.39 || f > 0.41 {
		t.Fatalf("fraction = %f", f)
	}
}

func TestUnaccountedNeverNegative(t *testing.T) {
	bc := core.Breadcrumb(0).Push("a_rpc")
	var comps [core.NumComponents]uint64
	comps[core.CompOriginExec] = uint64(time.Millisecond)
	dump := &core.ProfileDump{
		Entity: "cli",
		Origin: []core.DumpEntry{{BC: uint64(bc), Peer: "srv",
			Stats: core.CallStats{Count: 1, CumNanos: comps[core.CompOriginExec], Components: comps}}},
	}
	m := Merge([]*core.ProfileDump{dump})
	rep := m.Unaccounted(bc, 10*time.Millisecond) // network estimate > total
	if rep.Unaccount != 0 {
		t.Fatalf("unaccounted = %d, want 0", rep.Unaccount)
	}
}

func TestSystemStats(t *testing.T) {
	ts, _ := buildTrace()
	stats := SystemStats(ts, 16)
	if len(stats) != 3 { // cli, mid, leaf
		t.Fatalf("entities = %d", len(stats))
	}
	byEnt := map[string]EntityStats{}
	for _, s := range stats {
		byEnt[s.Entity] = s
	}
	if byEnt["leaf"].MaxBlocked != 7 {
		t.Fatalf("leaf max blocked = %d", byEnt["leaf"].MaxBlocked)
	}
	if byEnt["mid"].OFIAtCap != 1 {
		t.Fatalf("mid at-cap = %d", byEnt["mid"].OFIAtCap)
	}
}

// TestSystemStatsBatching checks that origin-end events stamped with
// batch IDs surface as the per-entity coalescing view.
func TestSystemStatsBatching(t *testing.T) {
	ts := MergeTraces([]*core.TraceDump{core.NewTraceDump("cli", 0, 0, []core.Event{
		{Entity: "cli", Kind: core.EvOriginEnd, RequestID: 1, BatchID: 10},
		{Entity: "cli", Kind: core.EvOriginEnd, RequestID: 2, BatchID: 10},
		{Entity: "cli", Kind: core.EvOriginEnd, RequestID: 3, BatchID: 11},
		{Entity: "cli", Kind: core.EvOriginEnd, RequestID: 4},                // unbatched
		{Entity: "cli", Kind: core.EvOriginStart, RequestID: 5, BatchID: 12}, // not an end
	})})
	stats := SystemStats(ts, 16)
	if len(stats) != 1 {
		t.Fatalf("entities = %d", len(stats))
	}
	s := stats[0]
	if s.BatchedOps != 3 || s.BatchFlushes != 2 {
		t.Fatalf("batched ops=%d flushes=%d, want 3/2", s.BatchedOps, s.BatchFlushes)
	}
}

func TestMergeTracesCountsDropped(t *testing.T) {
	ts := MergeTraces([]*core.TraceDump{
		core.NewTraceDump("a", 0, 3, nil), core.NewTraceDump("b", 0, 4, nil),
	})
	if ts.Dropped != 7 {
		t.Fatalf("dropped = %d", ts.Dropped)
	}
}

func TestRenderGantt(t *testing.T) {
	ts, reqID := buildTrace()
	spans := ts.Spans(reqID)
	var buf bytes.Buffer
	RenderGantt(&buf, spans, 40)
	out := buf.String()
	for _, want := range []string{"a_rpc", "b_rpc", "4 spans"} {
		if !strings.Contains(out, want) {
			t.Fatalf("gantt missing %q:\n%s", want, out)
		}
	}
	// Empty input doesn't panic.
	RenderGantt(&buf, nil, 40)
}

func TestRequestGaps(t *testing.T) {
	// Root client span 0..1000; server spans cover 100..300 and
	// 500..700 → gaps: 0..100 (start), 300..500, 700..1000.
	spans := []Span{
		{Kind: "CLIENT", RPCName: "root", StartNanos: 0, DurNanos: 1000},
		{Kind: "SERVER", RPCName: "s1", StartNanos: 100, DurNanos: 200},
		{Kind: "SERVER", RPCName: "s2", StartNanos: 500, DurNanos: 200},
	}
	gaps := RequestGaps(spans)
	if len(gaps) != 3 {
		t.Fatalf("gaps = %+v", gaps)
	}
	if gaps[0].After != "(start)" || gaps[0].DurNanos != 100 {
		t.Fatalf("gap0 = %+v", gaps[0])
	}
	if gaps[1].After != "s1" || gaps[1].DurNanos != 200 {
		t.Fatalf("gap1 = %+v", gaps[1])
	}
	if gaps[2].After != "s2" || gaps[2].DurNanos != 300 {
		t.Fatalf("gap2 = %+v", gaps[2])
	}
	if f := UncoveredFraction(spans); f < 0.59 || f > 0.61 {
		t.Fatalf("uncovered = %f, want 0.6", f)
	}
	// Overlapping server spans are merged, empty input is safe.
	if RequestGaps(nil) != nil {
		t.Fatal("nil spans produced gaps")
	}
	overlap := []Span{
		{Kind: "CLIENT", RPCName: "root", StartNanos: 0, DurNanos: 100},
		{Kind: "SERVER", RPCName: "a", StartNanos: 0, DurNanos: 60},
		{Kind: "SERVER", RPCName: "b", StartNanos: 40, DurNanos: 60},
	}
	if gaps := RequestGaps(overlap); len(gaps) != 0 {
		t.Fatalf("overlapping coverage produced gaps: %+v", gaps)
	}
}
