package core

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// recordingSink keeps a copy of every event it is lent.
type recordingSink struct {
	mu  sync.Mutex
	evs []Event
}

func (s *recordingSink) WriteEvent(ev Event) error {
	s.mu.Lock()
	s.evs = append(s.evs, keepAnnotations(ev))
	s.mu.Unlock()
	return nil
}

func (s *recordingSink) Flush() error { return nil }

// keepAnnotations returns ev with copies of the PVAR sample and the
// component array a sink is lent.
func keepAnnotations(ev Event) Event {
	if ev.PVars != nil {
		pv := *ev.PVars
		ev.PVars = &pv
	}
	if ev.Components != nil {
		comps := *ev.Components
		ev.Components = &comps
	}
	return ev
}

// emitAt hands ev to the shard selected by key with the annotations it
// carries.
func emitAt(p *Profiler, key uint64, ev Event) { p.EmitSampled(key, ev, ev.PVars, ev.Components) }

// emitBeside hands ev to the Profiler the way margo does: annotations
// in values on this stack, beside the event.
func emitBeside(p *Profiler, key uint64, ev Event) {
	var pv PVarSample
	var comps [NumComponents]uint64
	var pvp *PVarSample
	var cp *[NumComponents]uint64
	if ev.PVars != nil {
		pv, pvp = *ev.PVars, &pv
	}
	if ev.Components != nil {
		comps, cp = *ev.Components, &comps
	}
	ev.PVars, ev.Components = nil, nil
	p.EmitSampled(key, ev, pvp, cp)
}

// TestPackedTraceReturnsWhatWasEmitted: events with every field filled
// by reflection (so a field added to Event, SysSample or PVarSample is
// covered the day it is added, and fails here until the record carries
// it) go through the Profiler's shards and come back from TraceEvents
// deep-equal to what went in, in the order the Profiler promises:
// per-shard emission order, merged by timestamp, Lamport order and
// request ID. Timestamps are random, so deltas go backwards and wrap;
// 300 strings push table indexes past one byte; a few thousand events of
// some hundred bytes cross every chunk size. The same holds again after
// Reset, and at capacity, where the overflow is counted per event and
// the sinks still see every event with its annotations.
func TestPackedTraceReturnsWhatWasEmitted(t *testing.T) {
	for _, tc := range []struct {
		name             string
		shards, capacity int
		events, strings  int
		repeated         bool // few shapes and samples, interleaved
	}{
		{"one shard", 1, 0, 3000, 3, false},
		{"eight shards, many strings", 8, 0, 4000, 300, false},
		{"at capacity", 4, 1000, 1500, 40, false},
		{"repeated shapes and samples", 2, 0, 3000, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newProfiler("packed/p", StageFull, tc.shards, tc.capacity)
			sink := &recordingSink{}
			p.AddTraceSink(sink)
			perShard := p.shards[0].trace.cap
			for round, seed := range []int64{11, 12} {
				if round > 0 {
					p.ResetMeasurements()
					sink.evs = nil
				}
				evs := randomDump(seed, tc.events, tc.strings).Events
				if tc.repeated {
					evs = repeatingDump(seed, tc.events, 7, 3).Events
				}
				kept := make([][]Event, len(p.shards))
				var dropped uint64
				for k, ev := range evs {
					if ev.Timestamp == 0 {
						ev.Timestamp = 1 // zero asks the Profiler for the wall clock
						evs[k] = ev
					}
					key := ev.RequestID
					if k%2 == 0 {
						emitAt(p, key, ev)
					} else {
						emitBeside(p, key, ev)
					}
					if sh := key & uint64(len(p.shards)-1); len(kept[sh]) < perShard {
						kept[sh] = append(kept[sh], ev)
					} else {
						dropped++
					}
				}
				var want []Event
				for _, sh := range kept {
					want = append(want, sh...)
				}
				sortEvents(want)
				if tc.capacity > 0 && dropped == 0 {
					t.Fatal("the capacity case dropped nothing")
				}
				if got := p.TraceDropped(); got != dropped {
					t.Errorf("round %d: TraceDropped() = %d, want %d", round, got, dropped)
				}
				if got := p.TraceLen(); got != len(want) {
					t.Errorf("round %d: TraceLen() = %d, want %d", round, got, len(want))
				}
				got := p.TraceEvents()
				if len(got) != len(want) {
					t.Fatalf("round %d: TraceEvents() returned %d events, want %d", round, len(got), len(want))
				}
				for k := range want {
					if !reflect.DeepEqual(got[k], want[k]) {
						t.Fatalf("round %d: event %d came back as\n %+v (pvars %+v, components %v)\nwant\n %+v (pvars %+v, components %v)",
							round, k, got[k], got[k].PVars, got[k].Components, want[k], want[k].PVars, want[k].Components)
					}
				}
				if !reflect.DeepEqual(sink.evs, evs) {
					t.Errorf("round %d: the sink saw %d events, not the %d emitted with their annotations", round, len(sink.evs), len(evs))
				}
			}
		})
	}
}

// TestPackedTraceReadWhileWritten: TraceEvents decodes a snapshot outside the
// shard locks while emitters keep appending to the same chunks; what it
// returns is a prefix of each emitter's sequence, whole. Each emitter
// opens a span and closes it, so every other record is a fold into the
// one before it.
func TestPackedTraceReadWhileWritten(t *testing.T) {
	p := newProfiler("read/p", StageFull, 4, 0)
	const emitters, each = 4, 5000
	base, pv, comps := annotatedEvent()
	var wg sync.WaitGroup
	for e := 0; e < emitters; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			ev, pv, comps := base, pv, comps
			ev.Breadcrumb = uint64(e)
			for k := 1; k <= each; k++ {
				ev.RequestID, ev.Timestamp = uint64(k), base.Timestamp+int64(k)
				pv.RPCsInvokedTotal, comps[CompOriginExec] = uint64(k), uint64(e)
				start := ev
				start.Kind, start.Duration = EvOriginStart, 0
				p.EmitSampled(uint64(e), start, &pv, nil)
				p.EmitSampled(uint64(e), ev, &pv, &comps)
			}
		}(e)
	}
	check := func() int {
		evs := p.TraceEvents()
		next := [emitters]uint64{}
		for _, ev := range evs {
			e := ev.Breadcrumb
			end := next[e]%2 == 1
			next[e]++
			k := (next[e] + 1) / 2
			if ev.RequestID != k || ev.PVars.RPCsInvokedTotal != k || (ev.Kind == EvOriginEnd) != end ||
				end && (ev.Components[CompOriginExec] != e || ev.Duration != base.Duration || ev.Order != base.Order) ||
				ev.Entity != base.Entity || ev.Peer != base.Peer || ev.RPCName != base.RPCName {
				t.Fatalf("emitter %d's event %d came back as %+v (pvars %+v)", e, next[e], ev, ev.PVars)
			}
		}
		return len(evs)
	}
	for check() < emitters*each {
		runtime.Gosched()
	}
	wg.Wait()
	if n := check(); n != 2*emitters*each {
		t.Fatalf("%d events after the emitters finished, want %d", n, 2*emitters*each)
	}
}

// TestDumpTraceBytesUnchanged: the golden events, recorded through a
// profiler and dumped, serialize to the bytes committed as the fuzz
// corpus's golden seed — the dump file does not know how the process
// held its events. (The seed was last regenerated when the dump format
// went to version 4 and its header came to declare the span table.)
func TestDumpTraceBytesUnchanged(t *testing.T) {
	p := NewProfiler("n0/cli", StageFull)
	for _, ev := range goldenEvents() {
		emitBeside(p, ev.RequestID, ev)
	}
	d := NewTraceDump("n0/cli", 4242, 3, p.TraceEvents()) // DumpTrace, with the seed's header
	want := fuzzSeeds(t)["golden"]                        // TestFuzzSeedCorpusCurrent holds it equal to the committed file
	if got := encodeTrace(t, d); !bytes.Equal(got, want) {
		t.Errorf("WriteTrace(DumpTrace()) = %d bytes differing from the committed golden dump (%d bytes)", len(got), len(want))
	}
}

// TestDumpRecordsAreTheShards: a dump is laid out by the shard's
// recorder. The golden events, emitted into a one-shard profiler in the
// order DumpTrace dumps them, leave in the shard's chunks exactly the
// record section of the profiler's dump.
func TestDumpRecordsAreTheShards(t *testing.T) {
	p := newProfiler("n0/cli", StageFull, 1, 0)
	evs := goldenEvents()
	sortEvents(evs)
	for _, ev := range evs {
		emitBeside(p, ev.RequestID, ev)
	}
	tr := &p.shards[0].trace
	records := bytes.Join(append(tr.full[:len(tr.full):len(tr.full)], tr.cur), nil)
	dump := encodeTrace(t, p.DumpTrace())
	if len(records) == 0 || !bytes.HasSuffix(dump, records) {
		t.Fatalf("the shard holds %d bytes of records, not the last %d of its %d-byte dump", len(records), len(records), len(dump))
	}
}

// TestSamplesNumberedOnce: samples that recur more than four entries
// apart, as a shard sees them when its emitters' samples interleave, get
// one number each, in the shard's table and in the dump.
func TestSamplesNumberedOnce(t *testing.T) {
	const distinct = 6
	p := newProfiler("n0/cli", StageFull, 1, 0)
	var evs []Event
	for k := 0; k < 8*distinct; k++ {
		ev := Event{RequestID: uint64(k + 1), Order: uint64(k + 1), Timestamp: int64(k + 1), Entity: "n0/cli", RPCName: "r",
			Sys: SysSample{HeapBytes: uint64(k%distinct) << 20, Goroutines: 12}}
		p.Emit(ev)
		evs = append(evs, ev)
	}
	if n := len(p.shards[0].trace.samples.vals); n != distinct {
		t.Errorf("the shard numbered %d samples, want %d", n, distinct)
	}
	d := NewTraceDump("n0/cli", 1, 0, evs)
	used := map[uint32]bool{}
	for _, r := range d.Rows() {
		used[r.sample[SpanStart]] = true
	}
	if len(used) != distinct {
		t.Errorf("the dump's events use %d sample numbers, want %d", len(used), distinct)
	}
}

// TestPackedEmitSteadyStateCost pins what holding one fully annotated
// event (PVAR sample and component breakdown) costs the heap once a
// shard's chunks have reached full size: its record's bytes (about 43,
// its shape and sample being table numbers; 53 when the record spelled
// them) and a seven-hundredth of a chunk object. The Event, PVarSample
// and component array it replaced were 336 B. The event is a t14 whose
// t1 the shard never saw, so it is recorded in full; folded into a t1 it
// would carry a back-reference and residuals instead of its IDs,
// timestamp delta and table numbers.
func TestPackedEmitSteadyStateCost(t *testing.T) {
	const warm, n = 4096, 50_000
	p := newProfiler("cost/p", StageFull, 8, 8*(warm+n))
	ev, pv, comps := annotatedEvent()
	emit := func(k int) {
		for ; k > 0; k-- {
			ev.RequestID++
			ev.Order += 2
			ev.Timestamp += 41_000
			p.EmitSampled(7, ev, &pv, &comps)
		}
	}
	emit(warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	emit(n)
	runtime.ReadMemStats(&after)
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / n
	objsPer := float64(after.Mallocs-before.Mallocs) / n
	if bytesPer > 46 || objsPer >= 0.01 {
		t.Errorf("a fully annotated event costs %.1f B and %.4f objects, want <= 46 B and < 0.01", bytesPer, objsPer)
	}
	if p.TraceDropped() != 0 || p.TraceLen() != warm+n {
		t.Fatalf("%d events held, %d dropped", p.TraceLen(), p.TraceDropped())
	}
}
