package core

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestBreadcrumbPushDepthHops(t *testing.T) {
	var b Breadcrumb
	if b.Depth() != 0 {
		t.Fatalf("empty depth = %d", b.Depth())
	}
	b1 := b.Push("mobject_write_op")
	b2 := b1.Push("sdskv_put_rpc")
	if b1.Depth() != 1 || b2.Depth() != 2 {
		t.Fatalf("depths = %d, %d", b1.Depth(), b2.Depth())
	}
	hops := b2.Hops()
	if len(hops) != 2 {
		t.Fatalf("hops = %v", hops)
	}
	if hops[0] != Hash16("mobject_write_op") || hops[1] != Hash16("sdskv_put_rpc") {
		t.Fatalf("hop order wrong: %v", hops)
	}
	if b2.Parent() != b1 {
		t.Fatal("Parent() != original")
	}
	if uint16(b2) != Hash16("sdskv_put_rpc") {
		t.Fatal("Leaf() wrong")
	}
}

func TestBreadcrumbMaxDepthDropsOldest(t *testing.T) {
	names := []string{"a_rpc", "b_rpc", "c_rpc", "d_rpc", "e_rpc"}
	var b Breadcrumb
	for _, n := range names {
		b = b.Push(n)
	}
	if b.Depth() != MaxDepth {
		t.Fatalf("depth = %d, want %d", b.Depth(), MaxDepth)
	}
	hops := b.Hops()
	// Oldest (a_rpc) fell off; b..e remain in order.
	for i, n := range names[1:] {
		if hops[i] != Hash16(n) {
			t.Fatalf("hops = %v, want %v at %d", hops, Hash16(n), i)
		}
	}
}

func TestBreadcrumbPushParentInverseProperty(t *testing.T) {
	prop := func(seed uint64, name string) bool {
		if name == "" {
			return true
		}
		b := Breadcrumb(seed) & 0xFFFFFFFFFFFF // keep headroom for one push
		return b.Push(name).Parent() == b
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHash16NeverZero(t *testing.T) {
	prop := func(name string) bool { return Hash16(name) != 0 }
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestNameRegistryFormat(t *testing.T) {
	r := NewNameRegistry()
	for _, n := range []string{"mobject_read_op", "sdskv_list_keyvals_rpc"} {
		if _, err := r.Register(n); err != nil {
			t.Fatal(err)
		}
	}
	b := Breadcrumb(0).Push("mobject_read_op").Push("sdskv_list_keyvals_rpc")
	got := r.Format(b)
	want := "mobject_read_op => sdskv_list_keyvals_rpc"
	if got != want {
		t.Fatalf("Format = %q, want %q", got, want)
	}
	if r.Format(Breadcrumb(0)) != "(root)" {
		t.Fatal("empty breadcrumb format")
	}
	// Unknown hop renders as hex.
	unknown := Breadcrumb(0).Push("never_registered_rpc")
	if got := r.Format(unknown); got == "" || got == "(root)" {
		t.Fatalf("unknown hop format = %q", got)
	}
	// FormatTable matches registry Format.
	if FormatTable(r.Names(), b) != want {
		t.Fatal("FormatTable mismatch")
	}
}

func TestNameRegistryIdempotentAndCollision(t *testing.T) {
	r := NewNameRegistry()
	h1, err := r.Register("same_rpc")
	if err != nil {
		t.Fatal(err)
	}
	h2, err := r.Register("same_rpc")
	if err != nil || h1 != h2 {
		t.Fatalf("re-register: %v %v %v", h1, h2, err)
	}
	if n, ok := r.Name(h1); !ok || n != "same_rpc" {
		t.Fatalf("Name = %q, %v", n, ok)
	}
}

func TestLamportMonotonic(t *testing.T) {
	var l Lamport
	prev := uint64(0)
	for i := 0; i < 100; i++ {
		v := l.Tick()
		if v <= prev {
			t.Fatalf("Tick not monotonic: %d after %d", v, prev)
		}
		prev = v
	}
	if v := l.Merge(1000); v != 1001 {
		t.Fatalf("Merge(1000) = %d, want 1001", v)
	}
	if v := l.Merge(5); v != 1002 {
		t.Fatalf("Merge(5) = %d, want 1002 (max rule)", v)
	}
	if l.Now() != 1002 {
		t.Fatalf("Now = %d", l.Now())
	}
}

func TestLamportMergeProperty(t *testing.T) {
	prop := func(remotes []uint32) bool {
		var l Lamport
		prev := uint64(0)
		for _, r := range remotes {
			v := l.Merge(uint64(r))
			if v <= prev || v <= uint64(r) {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLamportConcurrentMergeRaces(t *testing.T) {
	var l Lamport
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for j := uint64(0); j < 500; j++ {
				l.Merge(base + j)
			}
		}(uint64(i * 1000))
	}
	wg.Wait()
	// The largest remote merged is 7499. (How far past it the clock ends
	// depends on the order the goroutines ran in: 7500 if the last range
	// was merged last.)
	if l.Now() <= 7499 {
		t.Fatalf("final clock %d not above max remote", l.Now())
	}
}

func TestCallStatsRecordAndMerge(t *testing.T) {
	var a CallStats
	comps := [NumComponents]uint64{}
	comps[CompHandler] = 10
	a.record(100*time.Nanosecond, &comps)
	a.record(50*time.Nanosecond, &comps)
	if a.Count != 2 || a.CumNanos != 150 || a.MinNanos != 50 || a.MaxNanos != 100 {
		t.Fatalf("stats = %+v", a)
	}
	if a.Components[CompHandler] != 20 {
		t.Fatalf("component sum = %d", a.Components[CompHandler])
	}
	if a.Mean() != 75*time.Nanosecond {
		t.Fatalf("Mean = %v", a.Mean())
	}

	var b CallStats
	b.record(200*time.Nanosecond, nil)
	a.Merge(&b)
	if a.Count != 3 || a.MaxNanos != 200 || a.MinNanos != 50 {
		t.Fatalf("merged = %+v", a)
	}
	var empty CallStats
	before := a
	a.Merge(&empty)
	if a != before {
		t.Fatal("merging empty changed stats")
	}
	var c CallStats
	c.Merge(&a)
	if c != a {
		t.Fatal("merge into empty != copy")
	}
}

func TestCallStatsMergeAssociativeProperty(t *testing.T) {
	mk := func(vals []uint16) CallStats {
		var s CallStats
		for _, v := range vals {
			s.record(time.Duration(v), nil)
		}
		return s
	}
	prop := func(x, y, z []uint16) bool {
		// (x+y)+z == x+(y+z)
		a, b, c := mk(x), mk(y), mk(z)
		l := a
		l.Merge(&b)
		l.Merge(&c)
		r2 := b
		r2.Merge(&c)
		r := a
		r.Merge(&r2)
		return reflect.DeepEqual(l, r)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestProfilerStageGating(t *testing.T) {
	p := NewProfiler("node0/client", StageInject)
	p.RecordOrigin(1, "node1/server", time.Millisecond, nil)
	if len(p.OriginStats()) != 0 {
		t.Fatal("StageInject recorded a profile entry")
	}
	p.SetStage(StageProfile)
	p.RecordOrigin(1, "node1/server", time.Millisecond, nil)
	if len(p.OriginStats()) != 1 {
		t.Fatal("StageProfile did not record")
	}
}

func TestProfilerRequestIDsUnique(t *testing.T) {
	p1 := NewProfiler("a", StageFull)
	p2 := NewProfiler("b", StageFull)
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		for _, p := range []*Profiler{p1, p2} {
			id := p.NewRequestID()
			if seen[id] {
				t.Fatalf("duplicate request ID %#x", id)
			}
			seen[id] = true
		}
	}
	if p1.pid == p2.pid {
		t.Fatal("PIDs collide")
	}
}

func TestProfilerDumpRoundTrip(t *testing.T) {
	p := NewProfiler("node0/p", StageFull)
	p.Names().Register("x_rpc")
	comps := [NumComponents]uint64{}
	comps[CompTargetExec] = 42
	p.RecordOrigin(Breadcrumb(0).Push("x_rpc"), "node1/s", time.Millisecond, &comps)
	p.RecordTargetAt(0, Breadcrumb(0).Push("x_rpc"), "node2/c", 2*time.Millisecond, nil)

	d := p.Dump()
	var buf bytes.Buffer
	if err := WriteProfile(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Entity != "node0/p" || len(got.Origin) != 1 || len(got.Target) != 1 {
		t.Fatalf("round trip = %+v", got)
	}
	if got.Origin[0].Stats.Components[CompTargetExec] != 42 {
		t.Fatal("components lost in round trip")
	}
	if got.Names[Hash16("x_rpc")] != "x_rpc" {
		t.Fatal("name table lost")
	}
}

func TestTracerBoundsAndReset(t *testing.T) {
	p := newProfiler("bounds/p", StageFull, 1, 3)
	for i := 0; i < 5; i++ {
		p.Emit(Event{RequestID: uint64(i)})
	}
	if p.TraceLen() != 3 || p.TraceDropped() != 2 {
		t.Fatalf("len = %d dropped = %d", p.TraceLen(), p.TraceDropped())
	}
	evs := p.TraceEvents()
	if evs[0].RequestID != 0 || evs[2].RequestID != 2 {
		t.Fatalf("events = %+v", evs)
	}
	if evs[0].Timestamp == 0 {
		t.Fatal("timestamp not stamped")
	}
	p.ResetMeasurements()
	if p.TraceLen() != 0 || p.TraceDropped() != 0 {
		t.Fatal("Reset incomplete")
	}
}

// TestTracerChunksKeepOrderAndBounds fills one shard's trace buffer
// across many chunk boundaries (and up to a capacity that falls inside a
// chunk): events come back complete and in emission order, the bound and
// the dropped count hold, a copy from TraceEvents survives a reset, and
// the buffer starts over small afterwards.
func TestTracerChunksKeepOrderAndBounds(t *testing.T) {
	const capacity = 20000 + 17 // some 250 KB of records: the doubling chunks, then several of chunkMax
	p := newProfiler("chunks/p", StageFull, 1, capacity)
	tr := &p.shards[0].trace
	pv := PVarSample{}
	for i := 0; i < capacity+5; i++ {
		pv.OFIEventsRead = uint64(i)
		dropped := tr.dropped
		p.EmitSampled(0, Event{RequestID: uint64(i), Timestamp: 1}, &pv, nil)
		if kept := tr.dropped == dropped; kept != (i < capacity) {
			t.Fatalf("emit %d kept = %v", i, kept)
		}
	}
	if p.TraceLen() != capacity || p.TraceDropped() != 5 {
		t.Fatalf("len = %d dropped = %d, want %d and 5", p.TraceLen(), p.TraceDropped(), capacity)
	}
	evs := p.TraceEvents()
	if len(evs) != capacity {
		t.Fatalf("TraceEvents returned %d of %d", len(evs), capacity)
	}
	for i, ev := range evs {
		if ev.RequestID != uint64(i) || ev.PVars == nil || ev.PVars.OFIEventsRead != uint64(i) {
			t.Fatalf("event %d = %+v (pvars %+v)", i, ev, ev.PVars)
		}
	}
	chunks := append(tr.full[:len(tr.full):len(tr.full)], tr.cur)
	if len(chunks) < 10 || cap(chunks[0]) != chunkMin || cap(chunks[len(chunks)-1]) != chunkMax {
		t.Fatalf("%d chunks, first of %d B, last of %d B", len(chunks), cap(chunks[0]), cap(chunks[len(chunks)-1]))
	}
	for i := 1; i < len(chunks); i++ {
		if c := cap(chunks[i]); c > chunkMax || c < cap(chunks[i-1]) {
			t.Fatalf("chunk %d holds %d B after one of %d", i, c, cap(chunks[i-1]))
		}
	}
	p.ResetMeasurements()
	p.Emit(Event{RequestID: 99})
	if evs[0].RequestID != 0 || evs[capacity-1].PVars.OFIEventsRead != capacity-1 {
		t.Fatal("a copy handed out by TraceEvents changed after a reset")
	}
	if got := p.TraceEvents(); len(got) != 1 || got[0].RequestID != 99 || len(tr.full) != 0 || cap(tr.cur) != chunkMin {
		t.Fatalf("after Reset: %+v in a chunk of %d", got, cap(tr.cur))
	}
}

func TestTraceDumpRoundTrip(t *testing.T) {
	p := NewProfiler("node0/p", StageFull)
	p.Emit(Event{
		RequestID: 9, Order: 2, Kind: EvTargetStart, RPCName: "y_rpc",
		Sys:   SysSample{PoolBlocked: 7},
		PVars: &PVarSample{OFIEventsRead: 16},
	})
	var buf bytes.Buffer
	if err := WriteTrace(&buf, p.DumpTrace()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	evs := dumpEvents(got)
	if len(evs) != 1 {
		t.Fatalf("events = %d", len(evs))
	}
	ev := evs[0]
	if ev.Kind != EvTargetStart || ev.Sys.PoolBlocked != 7 || ev.PVars.OFIEventsRead != 16 {
		t.Fatalf("event = %+v", ev)
	}
}

func TestStagePredicates(t *testing.T) {
	cases := []struct {
		s                        Stage
		injects, measures, pvars bool
		name                     string
	}{
		{StageOff, false, false, false, "Baseline"},
		{StageInject, true, false, false, "Stage 1"},
		{StageProfile, true, true, false, "Stage 2"},
		{StageFull, true, true, true, "Full Support"},
	}
	for _, c := range cases {
		if c.s.Injects() != c.injects || c.s.Measures() != c.measures ||
			c.s.SamplesPVars() != c.pvars || c.s.String() != c.name {
			t.Fatalf("stage %v predicates wrong", c.s)
		}
	}
}

func TestComponentTableMatchesPaperTableIII(t *testing.T) {
	// Table III rows, in order.
	want := []string{
		"Origin Execution Time",
		"Input Serialization Time",
		"Target Internal RDMA Transfer Time",
		"Target ULT Handler Time",
		"Input Deserialization Time",
		"Target ULT Execution Time (exclusive)",
		"Output Serialization Time",
		"Target ULT Completion Callback Time",
		"Origin Completion Callback Time",
	}
	if len(want) != int(NumComponents) {
		t.Fatal("test table incomplete")
	}
	for c, name := range want {
		if got := Component(c).Name(); got != name {
			t.Errorf("component %d is named %q, want %q", c, got, name)
		}
	}
}

func TestSysSamplerCaches(t *testing.T) {
	s := NewSysSampler(time.Hour) // never refresh after first
	a := s.Sample()
	b := s.Sample()
	if a.Goroutines == 0 {
		t.Fatal("no goroutine count")
	}
	if a != b {
		t.Fatal("cached samples differ")
	}
}

func TestEventKindString(t *testing.T) {
	if EvOriginStart.String() != "origin_start" || EvOriginEnd.String() != "origin_end" ||
		EvTargetStart.String() != "target_start" || EvTargetEnd.String() != "target_end" ||
		EventKind(9).String() != "unknown" {
		t.Fatal("event kind names wrong")
	}
}

func TestCallStatsHistogramAndPercentiles(t *testing.T) {
	var s CallStats
	// 90 calls at ~1µs, 10 calls at ~1ms.
	for i := 0; i < 90; i++ {
		s.record(time.Microsecond, nil)
	}
	for i := 0; i < 10; i++ {
		s.record(time.Millisecond, nil)
	}
	p50 := s.Percentile(50)
	if p50 < 500*time.Nanosecond || p50 > 4*time.Microsecond {
		t.Fatalf("p50 = %v, want ~1µs", p50)
	}
	p99 := s.Percentile(99)
	if p99 < 100*time.Microsecond {
		t.Fatalf("p99 = %v, want ~1ms scale", p99)
	}
	if s.Percentile(0) != time.Duration(s.MinNanos) {
		t.Fatal("p0 != min")
	}
	if s.Percentile(100) != time.Duration(s.MaxNanos) {
		t.Fatal("p100 != max")
	}
	var empty CallStats
	if empty.Percentile(50) != 0 {
		t.Fatal("empty percentile != 0")
	}
}

func TestCallStatsHistogramMergeProperty(t *testing.T) {
	prop := func(a, b []uint32) bool {
		var x, y, both CallStats
		for _, v := range a {
			x.record(time.Duration(v), nil)
			both.record(time.Duration(v), nil)
		}
		for _, v := range b {
			y.record(time.Duration(v), nil)
			both.record(time.Duration(v), nil)
		}
		x.Merge(&y)
		return x.Hist == both.Hist && x.Count == both.Count
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistBucketBoundaries(t *testing.T) {
	cases := map[uint64]int{
		// Underflow bucket: everything below 2^10.
		0: 0, 1: 0, 512: 0, 1023: 0,
		// Two buckets per octave: boundaries at 2^k and 3*2^(k-1).
		1024: 1, 1535: 1, 1536: 2, 2047: 2,
		2048: 3, 3071: 3, 3072: 4, 4095: 4,
		// Top of the tiled range and the overflow clamp.
		1 << 29: 39, 3 << 28: 40, 1 << 30: 41, 1 << 60: HistBuckets - 1,
	}
	for n, want := range cases {
		if got := HistBucket(n); got != want {
			t.Errorf("HistBucket(%d) = %d, want %d", n, got, want)
		}
	}
}
