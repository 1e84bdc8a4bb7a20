package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// TestCollectorShardMergeEquivalence is the shard-merge soundness
// property of the Profiler's store: recording a workload through any
// number of shards (keyed arbitrarily) and folding the shards back
// together yields exactly the
// CallStats (count/sum/min/max/hist/components) of recording serially
// into one map.
func TestCollectorShardMergeEquivalence(t *testing.T) {
	type op struct {
		Key  uint64
		BC   uint16
		Dur  uint32
		Comp uint16
	}
	prop := func(ops []op, shardSel uint8) bool {
		shards := 1 << (shardSel % 5) // 1..16
		p := newProfiler("merge/p", StageFull, shards, 64)
		serial := make(map[StatKey]*CallStats)
		for _, o := range ops {
			bc := Breadcrumb(o.BC)
			var comps [NumComponents]uint64
			comps[CompOriginExec] = uint64(o.Comp)
			d := time.Duration(o.Dur)
			p.RecordOriginAt(o.Key, bc, "peer", d, &comps)
			p.RecordTargetAt(o.Key, bc, "peer", d, nil)

			sk := StatKey{BC: bc, Peer: "peer"}
			s := serial[sk]
			if s == nil {
				s = &CallStats{}
				serial[sk] = s
			}
			s.record(d, &comps)
		}
		merged := p.OriginStats()
		if len(merged) != len(serial) {
			return false
		}
		for k, v := range serial {
			if merged[k] != *v {
				return false
			}
		}
		// Target side saw the same durations without components.
		tgt := p.TargetStats()
		for k, v := range serial {
			got := tgt[k]
			if got.Count != v.Count || got.CumNanos != v.CumNanos ||
				got.MinNanos != v.MinNanos || got.MaxNanos != v.MaxNanos {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCollectorMergeOrderIndependence checks that folding the per-shard
// maps in any shard order produces identical stats: merge is
// associative and commutative over shards.
func TestCollectorMergeOrderIndependence(t *testing.T) {
	prop := func(durs []uint16, seed int64) bool {
		const shards = 8
		p := newProfiler("merge/p", StageFull, shards, 64)
		bc := Breadcrumb(0).Push("merge_rpc")
		for i, d := range durs {
			p.RecordOriginAt(uint64(i), bc, "peer", time.Duration(d), nil)
		}
		// Fold shard maps manually in a random permutation and compare
		// with the Profiler's own merge.
		perm := rand.New(rand.NewSource(seed)).Perm(shards)
		shuffled := make(map[StatKey]CallStats)
		for _, idx := range perm {
			sh := &p.shards[idx]
			sh.mu.Lock()
			for k, v := range sh.origin {
				m := shuffled[k]
				m.Merge(v)
				shuffled[k] = m
			}
			sh.mu.Unlock()
		}
		return reflect.DeepEqual(shuffled, p.OriginStats())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCollectorConcurrentCountsPreserved hammers the Profiler's shards
// from many goroutines and verifies no recording is lost in the merge.
func TestCollectorConcurrentCountsPreserved(t *testing.T) {
	const (
		workers = 8
		perW    = 500
	)
	p := newProfiler("conc/p", StageFull, 8, workers*perW)
	bc := Breadcrumb(0).Push("conc_rpc")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(key uint64) {
			defer wg.Done()
			for j := 0; j < perW; j++ {
				p.RecordOriginAt(key, bc, "peer", time.Microsecond, nil)
				p.EmitSampled(key, Event{RequestID: key, Kind: EvOriginStart, RPCName: "conc_rpc"}, nil, nil)
			}
		}(uint64(w))
	}
	wg.Wait()
	stats := p.OriginStats()[StatKey{BC: bc, Peer: "peer"}]
	if stats.Count != workers*perW {
		t.Fatalf("merged count = %d, want %d", stats.Count, workers*perW)
	}
	if got := p.TraceLen(); got != workers*perW {
		t.Fatalf("trace len = %d (dropped %d), want %d", got, p.TraceDropped(), workers*perW)
	}
	if p.TraceDropped() != 0 {
		t.Fatalf("dropped = %d", p.TraceDropped())
	}
}

// TestCollectorTraceCapacityBound verifies the total capacity bound
// holds across shards and drops are counted.
func TestCollectorTraceCapacityBound(t *testing.T) {
	p := newProfiler("cap/p", StageFull, 4, 8) // 2 events per shard
	for i := 0; i < 40; i++ {
		p.EmitSampled(0, Event{RequestID: uint64(i)}, nil, nil) // all to shard 0
	}
	if got := p.TraceLen(); got != 2 {
		t.Fatalf("trace len = %d, want 2 (per-shard bound)", got)
	}
	if got := p.TraceDropped(); got != 38 {
		t.Fatalf("dropped = %d, want 38", got)
	}
	p.ResetMeasurements()
	if p.TraceLen() != 0 || p.TraceDropped() != 0 {
		t.Fatal("Reset incomplete")
	}
}

// TestProfilerDumpSurfacesDropped checks the satellite requirement:
// silent trace truncation is visible in both dump kinds.
func TestProfilerDumpSurfacesDropped(t *testing.T) {
	p := newProfiler("drop/p", StageFull, numShards, 4)
	for i := 0; i < 20; i++ {
		p.EmitSampled(0, Event{RequestID: uint64(i)}, nil, nil)
	}
	if p.TraceDropped() == 0 {
		t.Fatal("no drops recorded")
	}
	if d := p.Dump(); d.TraceDropped != p.TraceDropped() {
		t.Fatalf("profile dump dropped = %d, want %d", d.TraceDropped, p.TraceDropped())
	}
	if d := p.DumpTrace(); d.Dropped() != p.TraceDropped() {
		t.Fatalf("trace dump dropped = %d, want %d", d.Dropped(), p.TraceDropped())
	}
}

// TestJSONLTraceSinkRoundTrip checks the streaming sink's output parses
// back into the events it consumed, and that sinks observe events the
// bounded rings drop.
func TestJSONLTraceSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	p := newProfiler("jsonl/p", StageFull, 2, 4) // 2 per shard: will drop
	p.AddTraceSink(NewJSONLTraceSink(&buf))
	for i := 0; i < 10; i++ {
		p.EmitSampled(uint64(i), Event{RequestID: uint64(i), Kind: EvOriginStart, RPCName: "jsonl_rpc", Timestamp: int64(i + 1)}, nil, nil)
	}
	if err := p.FlushSinks(); err != nil {
		t.Fatal(err)
	}
	evs, _, err := ReadEventsJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 10 {
		t.Fatalf("sink saw %d events, want 10 (must include ring-dropped ones)", len(evs))
	}
	for i, ev := range evs {
		if ev.RequestID != uint64(i) || ev.RPCName != "jsonl_rpc" {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	if p.TraceDropped() == 0 {
		t.Fatal("expected buffer drops with capacity 4")
	}

	// Few shapes and samples, heavily repeated and interleaved, from
	// several emitters' keys: each is defined once and read back right.
	for seed := int64(1); seed <= 10; seed++ {
		var buf bytes.Buffer
		p := newProfiler("jsonl/p", StageFull, 4, 0)
		p.AddTraceSink(NewJSONLTraceSink(&buf))
		want := repeatingDump(seed, 500, 1+int(seed)%9, 1+int(seed)%4).Events
		for k := range want {
			if want[k].Timestamp == 0 {
				want[k].Timestamp = 1 // zero asks the Profiler for the wall clock
			}
			emitAt(p, uint64(k), want[k])
		}
		if err := p.FlushSinks(); err != nil {
			t.Fatal(err)
		}
		shapes, samples := map[string]bool{}, map[sample]bool{}
		for _, ev := range want {
			shapes[fmt.Sprint(ev.Kind, ev.Breadcrumb, ev.Entity, "\x00", ev.Peer, "\x00", ev.RPCName)] = true
			samples[sampleOf(&ev.Sys)] = true
		}
		// Each is defined at most once (the zero value never).
		if got := bytes.Count(buf.Bytes(), []byte("\n"+jsonlShape)); got > len(shapes) {
			t.Errorf("seed %d: %d shape definitions for %d shapes", seed, got, len(shapes))
		}
		if got := bytes.Count(buf.Bytes(), []byte("\n"+jsonlSample)); got > len(samples) {
			t.Errorf("seed %d: %d sample definitions for %d samples", seed, got, len(samples))
		}
		evs, truncated, err := ReadEventsJSONL(&buf)
		if err != nil || truncated != 0 || !reflect.DeepEqual(evs, want) {
			t.Fatalf("seed %d: read back %d events (truncated %d, err %v), not the %d written", seed, len(evs), truncated, err, len(want))
		}
	}
}

// TestCollectorEventsOrdered verifies the merged snapshot comes out in
// timestamp-then-Lamport order regardless of shard placement.
func TestCollectorEventsOrdered(t *testing.T) {
	p := newProfiler("order/p", StageFull, 4, 64)
	// Emit out of order across different shards.
	stamps := []int64{50, 10, 30, 20, 40}
	for i, ts := range stamps {
		p.EmitSampled(uint64(i), Event{RequestID: uint64(i), Timestamp: ts, Order: uint64(i)}, nil, nil)
	}
	evs := p.TraceEvents()
	if len(evs) != len(stamps) {
		t.Fatalf("events = %d", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Timestamp < evs[i-1].Timestamp {
			t.Fatalf("events unsorted: %v", evs)
		}
	}
}

// TestReadEventsJSONLTruncatedTail pins the SIGINT-mid-stream contract:
// a truncated final line is tolerated (parsed prefix + count returned),
// while a malformed line with complete lines after it is corruption and
// still fails.
func TestReadEventsJSONLTruncatedTail(t *testing.T) {
	// Every stream opens with the header and the definitions of "r" and
	// of a t5 shape that uses it.
	const head = `{"symbiosys_trace":4,"t0":0}` + "\n" + `{"s":1,"v":"r"}` + "\n" + `{"x":1,"k":1,"r":1}` + "\n"
	line := func(id uint64) string {
		return fmt.Sprintf(`{"i":%d,"t":0,"x":1}`, id)
	}
	t.Run("truncated final line", func(t *testing.T) {
		in := head + line(1) + "\n" + line(2) + "\n" + `{"i":3,"t":0,"x`
		evs, truncated, err := ReadEventsJSONL(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		if truncated != 1 {
			t.Fatalf("truncated = %d, want 1", truncated)
		}
		if len(evs) != 2 || evs[0].RequestID != 1 || evs[1].RequestID != 2 {
			t.Fatalf("events = %+v", evs)
		}
	})
	t.Run("truncated definition or header", func(t *testing.T) {
		for _, in := range []string{head + line(1) + "\n" + `{"s":2,"v":"sdskv_pu`, `{"symbiosys_trace":4,"t0":17`} {
			evs, truncated, err := ReadEventsJSONL(strings.NewReader(in))
			if err != nil || truncated != 1 || len(evs) != strings.Count(in, `"i":`) {
				t.Fatalf("%q: evs=%d truncated=%d err=%v", in, len(evs), truncated, err)
			}
		}
	})
	t.Run("clean stream reports no truncation", func(t *testing.T) {
		in := head + line(1) + "\n" + line(2) + "\n"
		evs, truncated, err := ReadEventsJSONL(strings.NewReader(in))
		if err != nil || truncated != 0 || len(evs) != 2 {
			t.Fatalf("evs=%d truncated=%d err=%v", len(evs), truncated, err)
		}
	})
	t.Run("trailing blank lines tolerated", func(t *testing.T) {
		in := head + line(1) + "\n\n  \n"
		evs, truncated, err := ReadEventsJSONL(strings.NewReader(in))
		if err != nil || truncated != 0 || len(evs) != 1 {
			t.Fatalf("evs=%d truncated=%d err=%v", len(evs), truncated, err)
		}
	})
	t.Run("mid-file corruption still fails", func(t *testing.T) {
		in := `{"symbiosys_trace":4,"t0":0}` + "\n" + `{"i":2,"garbage` + "\n" + line(3) + "\n"
		_, _, err := ReadEventsJSONL(strings.NewReader(in))
		if err == nil {
			t.Fatal("mid-file corruption not reported")
		}
		if !strings.Contains(err.Error(), "line 2") {
			t.Fatalf("error does not name the bad line: %v", err)
		}
	})
}

// goldenEvents is the fixed event sequence behind
// testdata/trace_golden.jsonl: three requests of one callpath, their
// t1/t5/t8/t14 with PVAR samples, component breakdowns and every
// optional field in use; the heap grows before the third.
func goldenEvents() []Event {
	pv := func(k uint64) *PVarSample {
		return &PVarSample{OFIEventsRead: k, CompletionQueue: k + 1, PostedHandles: k + 2, InputSerNanos: 100 * k,
			OriginCBNanos: 7 * k, NetworkPending: k % 3, BulkBytesMoved: 4096 * k, RPCsInvokedTotal: 10 + k}
	}
	comps := func(k uint64) *[NumComponents]uint64 {
		var c [NumComponents]uint64
		for i := range c {
			c[i] = k * uint64(i+1)
		}
		return &c
	}
	var evs []Event
	for k := uint64(1); k <= 3; k++ {
		base := Event{RequestID: 2<<32 | k, Entity: "n0/cli", Peer: "n1/srv", RPCName: "sdskv_put_packed", Breadcrumb: 0xed3a,
			Sys: SysSample{PoolRunnable: int64(k), PoolBlocked: 1, HeapBytes: (1 + k/3) << 20, Goroutines: 12}}
		t1 := base
		t1.Kind, t1.Order, t1.Timestamp, t1.PVars = EvOriginStart, 4*k, 1_000_000*int64(k), pv(k)
		t5 := base
		t5.Kind, t5.Order, t5.Timestamp, t5.Entity, t5.Peer, t5.QueueNanos, t5.PVars = EvTargetStart, 4*k+1, 1_000_000*int64(k)+10, "n1/srv", "n0/cli", 250, pv(k+10)
		t8 := base
		t8.Kind, t8.Order, t8.Timestamp, t8.Entity, t8.Peer, t8.Duration, t8.Failed = EvTargetEnd, 4*k+2, 1_000_000*int64(k)+20, "n1/srv", "n0/cli", 900, k == 2
		t14 := base
		t14.Kind, t14.Order, t14.Timestamp, t14.Duration, t14.BatchID, t14.WindowNanos, t14.PVars, t14.Components = EvOriginEnd, 4*k+3, 1_000_000*int64(k)+30, 2500, k-1, int64(30*(k-1)), pv(k+20), comps(k)
		evs = append(evs, t1, t5, t8, t14)
	}
	return evs
}

// TestJSONLSinkOutputStable: the bytes a JSONL sink writes for a fixed
// event sequence equal testdata/trace_golden.jsonl (version 4 of the
// stream; `go test ./internal/core -run TestJSONLSinkOutputStable
// -update` rewrites it), whichever way the annotations reach the
// Profiler — inside the event, beside it (the RPC fast path), or beside
// it with the buffer already full — every line is one JSON value, and the
// stream reads back as the events written.
func TestJSONLSinkOutputStable(t *testing.T) {
	golden, err := os.ReadFile("testdata/trace_golden.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		capacity int
		beside   bool
	}{
		{"in-event", 0, false},
		{"beside", 0, true},
		{"beside-ring-full", 5, true},
	} {
		var buf bytes.Buffer
		p := NewProfiler("n0/cli", StageFull)
		if tc.capacity > 0 {
			p = newProfiler("n0/cli", StageFull, 1, tc.capacity)
		}
		sink := NewJSONLTraceSink(&buf)
		p.AddTraceSink(sink)
		for _, ev := range goldenEvents() {
			if tc.beside {
				emitBeside(p, ev.RequestID, ev)
			} else {
				p.Emit(ev)
			}
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		if *updateCorpus && !tc.beside {
			if err := os.WriteFile("testdata/trace_golden.jsonl", buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			golden = bytes.Clone(buf.Bytes())
		}
		if !bytes.Equal(buf.Bytes(), golden) {
			t.Errorf("%s: sink output differs from testdata/trace_golden.jsonl:\n%s", tc.name, buf.String())
		}
		if tc.capacity > 0 {
			if got := p.TraceDropped(); got != uint64(len(goldenEvents())-tc.capacity) {
				t.Errorf("%s: dropped %d events, want %d", tc.name, got, len(goldenEvents())-tc.capacity)
			}
		}
		// What the buffer kept equals what the sinks saw.
		kept, _, err := ReadEventsJSONL(bytes.NewReader(golden))
		if err != nil {
			t.Fatal(err)
		}
		evs := p.TraceEvents()
		for k := range evs {
			if !reflect.DeepEqual(evs[k], kept[k]) {
				t.Errorf("%s: buffered event %d = %+v, want %+v", tc.name, k, evs[k], kept[k])
			}
		}
	}
	for n, line := range bytes.Split(bytes.TrimSuffix(golden, []byte("\n")), []byte("\n")) {
		var v any
		if err := json.Unmarshal(line, &v); err != nil {
			t.Errorf("line %d is not one JSON value: %v\n%s", n+1, err, line)
		}
	}
	if got, truncated, err := ReadEventsJSONL(bytes.NewReader(golden)); err != nil || truncated != 0 || !reflect.DeepEqual(got, goldenEvents()) {
		t.Errorf("the golden stream reads back as %d events (truncated %d, err %v), not the %d written", len(got), truncated, err, len(goldenEvents()))
	}
}
