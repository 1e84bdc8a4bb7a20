package core

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func encodeTrace(t testing.TB, d *TraceDump) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reencode encodes the events d's span table rebuilds, not the bytes
// the dump keeps for WriteTrace.
func reencode(d *TraceDump) []byte {
	return NewTraceDump(d.Entity(), pidOf(d), d.Dropped(), dumpEvents(d)).enc
}

// pidOf reads the PID in d's header.
func pidOf(d *TraceDump) uint32 {
	pid, _ := binary.Uvarint(d.enc[len(traceMagic)+1:])
	return uint32(pid)
}

// dumpEvents rebuilds the dump's events, in the order they were dumped,
// in one array of events, one of PVAR samples and one of component
// arrays that the events point into.
func dumpEvents(d *TraceDump) []Event {
	var n, npv, ncomps int
	for i := range d.rows {
		for _, f := range d.rows[i].flags {
			n += int(f>>hPresent) & 1
			npv += int(f>>hPVars) & 1
			ncomps += int(f>>hComps) & 1
		}
	}
	if n == 0 {
		return nil
	}
	evs, pvs, comps := make([]Event, n), make([]PVarSample, npv), make([][NumComponents]uint64, ncomps)
	for i := range d.rows {
		r := &d.rows[i]
		for h, f := range r.flags {
			if f == 0 {
				continue
			}
			var pv *PVarSample
			var cs *[NumComponents]uint64
			if f&(1<<hPVars) != 0 {
				pv, pvs = &pvs[0], pvs[1:]
			}
			if f&(1<<hComps) != 0 {
				cs, comps = &comps[0], comps[1:]
			}
			d.Event(r, h, &evs[r.Pos[h]], pv, cs)
		}
	}
	return evs
}

// folds counts the events of d written as folds: the halves whose kind
// is their shape's partner.
func folds(d *TraceDump) (n int) {
	for i := range d.rows {
		for _, f := range d.rows[i].flags {
			n += int(f>>hPartner) & 1
		}
	}
	return n
}

// eventDump is a process's trace as its events, the way tests build
// one.
type eventDump struct {
	Entity  string
	PID     uint32
	Dropped uint64
	Events  []Event
}

func (d *eventDump) encode() []byte { return NewTraceDump(d.Entity, d.PID, d.Dropped, d.Events).enc }

// roundTrip takes a dump through both spellings of an event — the binary
// dump (WriteTrace, ReadTrace) and the JSONL stream (JSONLTraceSink,
// ReadEventsJSONL) — and wants back exactly what went in; through the
// span table, the dump re-encodes to the same bytes.
func roundTrip(t *testing.T, d *eventDump) {
	t.Helper()
	data := d.encode()
	got, err := ReadTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if back := (eventDump{got.Entity(), pidOf(got), got.Dropped(), dumpEvents(got)}); !reflect.DeepEqual(&back, d) {
		t.Errorf("round trip changed the dump:\n got %+v\nwant %+v", back, d)
	}
	if again := encodeTrace(t, got); !bytes.Equal(again, data) {
		t.Errorf("WriteTrace wrote %d bytes differing from the %d read", len(again), len(data))
	}
	if again := reencode(got); !bytes.Equal(again, data) {
		t.Errorf("the span table re-encodes to %d bytes differing from the %d read", len(again), len(data))
	}
	if cap(got.vals) != len(got.vals) {
		t.Errorf("the value column was sized for %d values and holds %d", cap(got.vals), len(got.vals))
	}
	evs, truncated, err := ReadEventsJSONL(bytes.NewReader(encodeJSONL(t, d.Events)))
	if err != nil || truncated != 0 {
		t.Fatalf("ReadEventsJSONL: truncated %d, %v", truncated, err)
	}
	if len(evs) != len(d.Events) {
		t.Fatalf("JSONL round trip returned %d events for %d", len(evs), len(d.Events))
	}
	for i := range evs {
		if !reflect.DeepEqual(evs[i], d.Events[i]) {
			t.Fatalf("JSONL round trip changed event %d:\n got %+v (pvars %+v, components %v)\nwant %+v (pvars %+v, components %v)",
				i, evs[i], evs[i].PVars, evs[i].Components, d.Events[i], d.Events[i].PVars, d.Events[i].Components)
		}
	}
}

// encodeJSONL is what a JSONL sink writes for evs.
func encodeJSONL(t testing.TB, evs []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := NewJSONLTraceSink(&buf)
	for _, ev := range evs {
		if err := sink.WriteEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fillRandom sets every field of the struct v points to from rng, one
// level of pointers deep, drawing integers from the values a varint
// codec gets wrong first: zero, one, the extremes, and values around
// each 7-bit boundary. Filling by reflection means a field added to
// Event, SysSample or PVarSample is exercised the day it is added, and
// fails the round trip until the codec (and its version) follow.
func fillRandom(rng *rand.Rand, v reflect.Value, strs []string) {
	edge := func(bits int) uint64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return 1
		case 2:
			return math.MaxUint64 >> (64 - bits)
		case 3:
			return uint64(1)<<(7*(1+rng.Intn(9))%bits) - uint64(rng.Intn(2))
		}
		return rng.Uint64() >> rng.Intn(64) >> (64 - bits)
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillRandom(rng, v.Field(i), strs)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillRandom(rng, v.Index(i), strs)
		}
	case reflect.Pointer:
		if rng.Intn(3) == 0 {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		if rng.Intn(4) > 0 { // else: present but all zero
			fillRandom(rng, v.Elem(), strs)
		}
	case reflect.String:
		v.SetString(strs[rng.Intn(len(strs))])
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.Uint64:
		v.SetUint(edge(64))
	case reflect.Int64, reflect.Int:
		v.SetInt(int64(edge(64)))
	case reflect.Int8:
		v.SetInt(int64(int8(edge(8))))
	default:
		panic("fillRandom: no rule for " + v.Type().String())
	}
}

func randomDump(seed int64, nEvents, nStrings int) *eventDump {
	rng := rand.New(rand.NewSource(seed))
	strs := []string{""}
	for i := 1; i < nStrings; i++ {
		strs = append(strs, "s"+strconv.Itoa(i)+strings.Repeat("x", rng.Intn(4)))
	}
	d := &eventDump{Entity: strs[rng.Intn(len(strs))], PID: uint32(rng.Uint64()), Dropped: rng.Uint64() >> rng.Intn(64)}
	if nEvents > 0 {
		d.Events = make([]Event, nEvents)
	}
	for i := range d.Events {
		fillRandom(rng, reflect.ValueOf(&d.Events[i]).Elem(), strs)
	}
	return d
}

// repeatingDump is randomDump whose events take their shape (kind,
// breadcrumb, entity, peer, RPC) from nShapes random prototypes and their
// sample (heap size, goroutines) from nSamples, interleaved at random, as
// a run's events do: what the folded tables and their memos must get
// right.
func repeatingDump(seed int64, nEvents, nShapes, nSamples int) *eventDump {
	d := randomDump(seed, nEvents, 6)
	protos := randomDump(-seed, nShapes+nSamples, 6).Events
	rng := rand.New(rand.NewSource(seed))
	for i := range d.Events {
		ev, sh, sm := &d.Events[i], &protos[rng.Intn(nShapes)], &protos[nShapes+rng.Intn(nSamples)]
		ev.Kind, ev.Breadcrumb, ev.Entity, ev.Peer, ev.RPCName = sh.Kind, sh.Breadcrumb, sh.Entity, sh.Peer, sh.RPCName
		ev.Sys.HeapBytes, ev.Sys.Goroutines = sm.Sys.HeapBytes, sm.Sys.Goroutines
	}
	return d
}

func TestTraceDumpRoundTripGolden(t *testing.T) {
	roundTrip(t, &eventDump{Entity: "n0/cli", PID: 4242, Dropped: 3, Events: goldenEvents()})
	roundTrip(t, &eventDump{})
	roundTrip(t, &eventDump{Entity: "idle", PID: 1})
}

// TestTraceDumpRoundTripRandom covers zero and extreme values in every
// field, nil against present-but-zero PVars and Components, empty Peer
// and Entity, timestamps that go backwards and wrap, and string tables
// past the one-byte index range.
func TestTraceDumpRoundTripRandom(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		nStrings := 3
		if seed%5 == 0 {
			nStrings = 300
		}
		roundTrip(t, randomDump(seed, int(seed*7)%400, nStrings))
	}
	// Few shapes and samples, heavily repeated and interleaved.
	for seed := int64(1); seed <= 30; seed++ {
		roundTrip(t, repeatingDump(seed, 300, 1+int(seed)%9, 1+int(seed)%4))
	}
	// One event with every field at its extreme.
	ev := Event{
		RequestID: math.MaxUint64, Order: math.MaxUint64, Kind: EventKind(math.MinInt8), Timestamp: math.MinInt64,
		Breadcrumb: math.MaxUint64, Duration: math.MinInt64, BatchID: math.MaxUint64, Failed: true,
		QueueNanos: math.MaxInt64, WindowNanos: math.MinInt64,
		Sys:   SysSample{PoolRunnable: math.MinInt64, PoolBlocked: math.MaxInt64, HeapBytes: math.MaxUint64, Goroutines: math.MaxInt},
		PVars: &PVarSample{}, Components: &[NumComponents]uint64{},
	}
	for _, p := range ev.PVars.fields() {
		*p = math.MaxUint64
	}
	for i := range ev.Components {
		ev.Components[i] = math.MaxUint64
	}
	next := ev
	next.Timestamp = math.MaxInt64 // a delta that overflows int64
	roundTrip(t, &eventDump{Entity: "e", PID: math.MaxUint32, Dropped: math.MaxUint64, Events: []Event{ev, next, ev}})
}

// TestTraceCodecCoversEveryField fails when a field is added to a
// struct the two codecs spell out by hand.
func TestTraceCodecCoversEveryField(t *testing.T) {
	for _, c := range []struct {
		v    any
		want int
	}{
		{Event{}, 16}, {SysSample{}, 4}, {PVarSample{}, numPVarFields}, {TraceDump{}, 7},
	} {
		if got := reflect.TypeOf(c.v).NumField(); got != c.want {
			t.Errorf("%T has %d fields, the trace codecs encode %d: extend the dump codec (tracedump.go, bump traceVersion) and the JSONL codec (sink.go: jsonlLegend, jsonlLine, WriteEvent; bump jsonlVersion)", c.v, got, c.want)
		}
	}
	if NumComponents > 64 {
		t.Fatal("component presence mask is 64 bits")
	}
}

func TestTraceDumpSize(t *testing.T) {
	evs := goldenEvents()
	b := (&eventDump{Entity: "n0/cli", Events: evs}).encode()
	if per := len(b) / len(evs); per > 64 {
		t.Fatalf("golden dump is %d B/event", per)
	}
	// A run repeats its shapes and samples, and its ends repeat their
	// starts: folded, a hundred requests of the golden callpath cost
	// their starts' IDs, timestamps and annotations, and their ends'
	// back-references, residuals and annotations (24.0 B/event; 26.9 when
	// every end spelled its own IDs and timestamp, 35.8 when every event
	// also spelled its shape and sample).
	var run []Event
	for k := uint64(0); k < 100; k++ {
		for _, ev := range goldenEvents()[:4] {
			ev.RequestID += k
			ev.Order += 4 * k
			ev.Timestamp += 41_000 * int64(k)
			run = append(run, ev)
		}
	}
	b = (&eventDump{Entity: "n0/cli", Events: run}).encode()
	if per := float64(len(b)) / float64(len(run)); per > 24.5 {
		t.Fatalf("a run of repeated shapes dumps to %.1f B/event, want <= 24.5", per)
	}
}

// spanRun is a deterministic two-process run: 64 requests from a loader
// to a server, one every microsecond and each open for about 20, so some
// twenty spans overlap on either side. Every request is a t1 and t14 on
// the loader and a t5 and t8 on the server, annotated as margo annotates
// them, with a heap sample that moves every 16 requests; the Lamport
// order is the emission order. It returns the two profilers and, per
// profiler, the events emitted into it.
func spanRun(t *testing.T) (profs [2]*Profiler, emitted [2][]Event) {
	t.Helper()
	profs = [2]*Profiler{newProfiler("n0/loader", StageFull, 8, 0), newProfiler("n1/srv", StageFull, 8, 0)}
	type emit struct {
		side int
		ult  uint64
		ev   Event
	}
	var all []emit
	comps := func(k int64) *[NumComponents]uint64 {
		var c [NumComponents]uint64
		c[CompOriginExec], c[CompInputSer] = uint64(20_000+7*k), uint64(300+k)
		return &c
	}
	for k := int64(0); k < 64; k++ {
		base := Event{RequestID: 7<<32 | uint64(k+1), Breadcrumb: 0xed3a, RPCName: "sdskv_put_packed",
			Sys: SysSample{PoolRunnable: k % 3, PoolBlocked: k % 5, HeapBytes: uint64(40+k/16) << 20, Goroutines: 212}}
		t1 := base
		t1.Kind, t1.Timestamp, t1.Entity, t1.Peer = EvOriginStart, 1_700_000_000_000_000_000+1_000*k, "n0/loader", "n1/srv"
		t1.PVars = &PVarSample{OFIEventsRead: uint64(k), PostedHandles: 64}
		t5 := base
		t5.Kind, t5.Timestamp, t5.Entity, t5.Peer, t5.QueueNanos = EvTargetStart, t1.Timestamp+200, "n1/srv", "n0/loader", 50+k
		t5.PVars = &PVarSample{OFIEventsRead: uint64(k), RPCsInvokedTotal: uint64(k)}
		t8 := t5
		t8.Kind, t8.Duration, t8.QueueNanos, t8.PVars = EvTargetEnd, 15_000+k, 0, nil
		t8.Timestamp = t5.Timestamp + t8.Duration + k%3 - 1 // wall and monotonic clocks differ by a few ns
		t14 := t1
		t14.Kind, t14.Duration, t14.Components = EvOriginEnd, 20_000+7*k, comps(k)
		t14.Timestamp = t1.Timestamp + t14.Duration
		t14.PVars = &PVarSample{OFIEventsRead: uint64(k), InputSerNanos: uint64(300 + k), OriginCBNanos: 900}
		all = append(all, emit{0, uint64(k%5 + 1), t1}, emit{1, uint64(k%3 + 10), t5}, emit{1, uint64(k%3 + 10), t8}, emit{0, uint64(k%5 + 1), t14})
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].ev.Timestamp < all[j].ev.Timestamp })
	for i := range all {
		e := &all[i]
		e.ev.Order = uint64(i + 1)
		emitBeside(profs[e.side], e.ult, e.ev)
		emitted[e.side] = append(emitted[e.side], e.ev)
	}
	return profs, emitted
}

// TestFoldedStreamSize guards the fold: through a Profiler, the ends of
// overlapping spans fold into their starts in the shards, in the dumps
// and in the JSONL stream (written as Cluster.Export writes it, one
// process after the other); the events come back exact from all three;
// and what an event costs stays within 5% of where the fold put it: 71.1
// B/event as JSONL and 16.8 B/event dumped, against 85.9 and 20.4 when
// every end was spelled in full.
func TestFoldedStreamSize(t *testing.T) {
	profs, emitted := spanRun(t)
	var stream bytes.Buffer
	sink := NewJSONLTraceSink(&stream)
	var ends, dumpFolds, dumpBytes int
	for i, p := range profs {
		evs := p.TraceEvents()
		sortEvents(emitted[i])
		if !reflect.DeepEqual(evs, emitted[i]) {
			t.Fatalf("%s: the shards returned %d events differing from the %d emitted", p.entity, len(evs), len(emitted[i]))
		}
		for _, ev := range evs {
			if !isSpanStart(ev.Kind) {
				ends++
			}
			if err := sink.WriteEvent(ev); err != nil {
				t.Fatal(err)
			}
		}
		data := encodeTrace(t, p.DumpTrace())
		d, err := decodeTraceDump(data)
		if err != nil || !reflect.DeepEqual(dumpEvents(d), evs) {
			t.Fatalf("%s: the dump reads back as %d events (%v), not the %d emitted", p.entity, len(dumpEvents(d)), err, len(evs))
		}
		dumpFolds += folds(d)
		dumpBytes += len(data)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadEventsJSONL(bytes.NewReader(stream.Bytes()))
	if err != nil || !reflect.DeepEqual(got, append(append([]Event(nil), emitted[0]...), emitted[1]...)) {
		t.Fatalf("the stream reads back as %d events (%v), not the %d emitted", len(got), err, len(emitted[0])+len(emitted[1]))
	}
	streamFolds := bytes.Count(stream.Bytes(), []byte("\n"+jsonlFold))
	events := float64(len(got))
	t.Logf("%d of %d ends folded in the stream, %d in the dumps; %.1f B/event as JSONL, %.1f B/event dumped",
		streamFolds, ends, dumpFolds, float64(stream.Len())/events, float64(dumpBytes)/events)
	for what, folds := range map[string]int{"stream": streamFolds, "dumps": dumpFolds} {
		if float64(folds) < 0.95*float64(ends) {
			t.Errorf("%d of %d ends folded in the %s, want at least 95%%", folds, ends, what)
		}
	}
	if per := float64(stream.Len()) / events; per > 71.1*1.05 {
		t.Errorf("the stream takes %.1f B/event, want <= %.1f", per, 71.1*1.05)
	}
	if per := float64(dumpBytes) / events; per > 16.8*1.05 {
		t.Errorf("the dumps take %.1f B/event, want <= %.1f", per, 16.8*1.05)
	}
}

// TestFoldAcrossReset: ResetMeasurements empties the shards' span memo
// with their records. A t14 whose t1 the reset dropped is recorded in
// full, and does not fold into the record that now holds the t1's index.
func TestFoldAcrossReset(t *testing.T) {
	p := newProfiler("reset/p", StageFull, 1, 0)
	t1 := Event{RequestID: 1, Kind: EvOriginStart, Timestamp: 100, Entity: "e", RPCName: "r"}
	p.Emit(t1)
	p.ResetMeasurements()
	other := t1
	other.RequestID, other.Timestamp = 2, 200
	t14 := t1
	t14.Kind, t14.Timestamp, t14.Duration = EvOriginEnd, 300, 200
	p.Emit(other)
	p.Emit(t14)
	want := []Event{other, t14}
	if got := p.TraceEvents(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after a reset the shard returns %+v, want %+v", got, want)
	}
	d, err := decodeTraceDump(encodeTrace(t, p.DumpTrace()))
	if err != nil || folds(d) != 0 || !reflect.DeepEqual(dumpEvents(d), want) {
		t.Fatalf("the dump reads back as %+v with %d folds (%v), want %+v in full", d, folds(d), err, want)
	}
}

// allocatedBytes is the process's cumulative heap allocation.
func allocatedBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// uv is a varint literal for hand-built dumps.
func uv(v uint64) []byte { return binary.AppendUvarint(nil, v) }

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// strTable is a hand-built string table.
func strTable(ss ...string) []byte {
	b := uv(uint64(len(ss)))
	for _, s := range ss {
		b = cat(b, uv(uint64(len(s))), []byte(s))
	}
	return b
}

// shapeDef is a hand-built shape: kind, breadcrumb and three string
// indexes.
func shapeDef(kind, bc, entity, peer, rpc uint64) []byte {
	return cat(uv(kind), uv(bc), uv(entity), uv(peer), uv(rpc))
}

// malformedDumps are hand-built dumps ReadTrace must refuse, each broken
// in one way; good is the minimal dump they are built from.
func malformedDumps() (good []byte, cases map[string][]byte) {
	head := cat([]byte(traceMagic), []byte{traceVersion})
	// pid, dropped, one string "e".
	pre := cat(head, uv(7), uv(0), strTable("e"))
	// One shape (kind 0, breadcrumb 0, "e" for all three strings) and one
	// sample (heap 0, goroutines 0).
	shape0, sample0 := shapeDef(0, 0, 0, 0, 0), cat(uv(0), uv(0))
	tables := cat(uv(1), shape0, uv(1), sample0)
	// A minimal event: flags, ids, ts delta, shape and sample indexes.
	ev := func(flags uint64, rest ...[]byte) []byte {
		return cat(uv(flags), uv(1), uv(1), uv(0), uv(0), uv(0), cat(rest...))
	}
	// one is a one-event dump declaring the rows and values given.
	one := func(nrows, nvals uint64, event []byte) []byte {
		return cat(pre, tables, uv(1), uv(nrows), uv(nvals), event)
	}
	// over is a one-event dump over the given tables.
	over := func(strs, shapes, samples, event []byte) []byte {
		return cat(head, uv(7), uv(0), strs, shapes, samples, uv(1), uv(1), uv(0), event)
	}
	good = one(1, 0, ev(0))
	huge := uv(1 << 40)
	v1 := cat([]byte(traceMagic), []byte{1}, uv(7), uv(0), strTable("e"), uv(1), uv(0), uv(0),
		uv(0), uv(1), uv(1), uv(1), uv(0), uv(0), uv(0), uv(0)) // a minimal dump of version 1

	// Spans: shape 0 is a t1 and shape 1 the t14 of the same callpath
	// and strings. start(id) is a t1 of request id, end(id) its t14 in
	// full, fold(back) a t14 folded into the event back events before it,
	// which shares its row. spansOf declares the rows and values given,
	// spans those the events make: a row per full record, no values.
	spansOf := func(nrows, nvals uint64, events ...[]byte) []byte {
		return cat(pre, uv(2), shape0, shapeDef(uint64(EvOriginEnd), 0, 0, 0, 0), uv(1), sample0,
			uv(uint64(len(events))), uv(nrows), uv(nvals), cat(events...))
	}
	spans := func(events ...[]byte) []byte {
		var rows uint64
		for _, e := range events {
			if e[0]&evFold == 0 {
				rows++
			}
		}
		return spansOf(rows, 0, events...)
	}
	start := func(id uint64) []byte { return cat(uv(0), uv(id), uv(1), uv(0), uv(0), uv(0)) }
	end := func(id uint64) []byte { return cat(uv(0), uv(id), uv(2), uv(0), uv(1), uv(0)) }
	fold := func(back uint64) []byte { return cat(uv(evFold), uv(back), uv(0)) }
	pushedOut := [][]byte{start(1)}
	for id := uint64(2); id <= memoSpans+1; id++ {
		pushedOut = append(pushedOut, start(id))
	}
	pushedOut = append(pushedOut, fold(memoSpans+1))

	return good, map[string][]byte{
		"fold before the first event":                               spans(start(1), fold(2)),
		"fold into an end":                                          spans(start(1), end(2), fold(1)),
		"fold into a closed start":                                  spans(start(1<<40), fold(1), fold(2)), // a long ID: three records need 14 bytes
		"fold into another request's start, pushed out of the memo": spans(pushedOut...),
		"fold past a newer start of its span":                       spans(start(1), start(1), fold(2)),
		"full record of an end that folds":                          spans(start(1), end(1)),
		// A t1 of request 2 after ResetMeasurements, then the t14 of
		// request 1, whose t1 the reset dropped, folded as if the memo had
		// kept it.
		"fold across a reset":         spans(start(2), end(3), fold(3)),
		"fold with a duration flag":   spans(start(1), cat(uv(evFold|evDuration), uv(1), uv(0), uv(5))),
		"full record with a residual": one(1, 0, ev(evTSResidual, uv(1))),
		"fold repeating its sample":   spans(start(1), cat(uv(evFold|evSample), uv(1), uv(0), uv(0))),
		"version 2":                   cat([]byte(traceMagic), []byte{2}, good[5:]),
		"version 3":                   cat([]byte(traceMagic), []byte{3}, good[5:]),
		"empty":                       nil,
		"json":                        []byte(`{"entity":"e","pid":1,"dropped":0,"events":[]}`),
		"bad magic":                   cat([]byte("SYTX"), good[4:]),
		"magic only":                  []byte(traceMagic),
		"version 1":                   v1,
		"future version":              cat([]byte(traceMagic), []byte{traceVersion + 1}, good[5:]),
		"truncated varint":            cat(head, []byte{0x80}),
		"overlong varint":             cat(head, bytes.Repeat([]byte{0xff}, 11)),
		"non-minimal varint":          cat(head, []byte{0x87, 0x00}, good[6:]),
		"pid overflow":                cat(head, uv(1<<32), good[6:]),
		"no entity string":            cat(head, uv(7), uv(0), uv(0), uv(0), uv(0), uv(0), uv(0), uv(0)),
		"2^40 strings":                cat(head, uv(7), uv(0), huge, uv(1), []byte("e")),
		"string past the end":         cat(head, uv(7), uv(0), uv(1), uv(50), []byte("e")),
		"2^40-byte string":            cat(head, uv(7), uv(0), uv(1), huge, []byte("e")),
		"duplicate string":            over(strTable("e", "e"), cat(uv(1), shape0), cat(uv(1), sample0), ev(0)),
		"unused string":               over(strTable("e", "f"), cat(uv(1), shape0), cat(uv(1), sample0), ev(0)),
		"string index past table":     over(strTable("e"), cat(uv(1), shapeDef(0, 0, 0, 0, 9)), cat(uv(1), sample0), ev(0)),
		"string index skips one":      over(strTable("e", "f", "g"), cat(uv(1), shapeDef(0, 0, 0, 2, 1)), cat(uv(1), sample0), ev(0)),
		"2^40 shapes":                 cat(pre, huge, shape0, uv(1), sample0, uv(1), uv(1), uv(0), ev(0)),
		"shape past the end":          cat(pre, uv(2), shape0),
		"kind over a byte":            over(strTable("e"), cat(uv(1), shapeDef(256, 0, 0, 0, 0)), cat(uv(1), sample0), ev(0)),
		"duplicate shape":             over(strTable("e"), cat(uv(2), shape0, shape0), cat(uv(1), sample0), ev(0)),
		"unused shape":                over(strTable("e"), cat(uv(2), shape0, shapeDef(1, 0, 0, 0, 0)), cat(uv(1), sample0), ev(0)),
		"shape index past table":      one(1, 0, cat(uv(0), uv(1), uv(1), uv(0), uv(1), uv(0))),
		"shape index skips one": over(strTable("e"), cat(uv(2), shape0, shapeDef(1, 0, 0, 0, 0)), cat(uv(1), sample0),
			cat(uv(0), uv(1), uv(1), uv(0), uv(1), uv(0))),
		"2^40 samples":            cat(pre, uv(1), shape0, huge, sample0, uv(1), uv(1), uv(0), ev(0)),
		"duplicate sample":        over(strTable("e"), cat(uv(1), shape0), cat(uv(2), sample0, sample0), ev(0)),
		"unused sample":           over(strTable("e"), cat(uv(1), shape0), cat(uv(2), sample0, uv(5), uv(0)), ev(0)),
		"sample index past table": one(1, 0, cat(uv(0), uv(1), uv(1), uv(0), uv(0), uv(1))),
		"sample index skips one": over(strTable("e"), cat(uv(1), shape0), cat(uv(2), sample0, uv(5), uv(0)),
			cat(uv(0), uv(1), uv(1), uv(0), uv(0), uv(1))),
		"2^40 events":                cat(pre, tables, huge, uv(1), uv(0), ev(0)),
		"2^40 events, 20 bytes":      cat(pre, tables, huge, uv(0), uv(0)),
		"more rows than events":      cat(pre, tables, uv(1), uv(2), uv(0), ev(0)),
		"2^40 values":                cat(pre, tables, uv(1), uv(1), huge, ev(0)),
		"more rows than declared":    one(0, 0, ev(0)),
		"fewer rows than declared":   spansOf(2, 0, start(1), fold(1)),
		"more values than declared":  one(1, 0, ev(evDuration, uv(5))),
		"fewer values than declared": one(1, 1, ev(0)),
		"missing event":              cat(pre, tables, uv(2), uv(2), uv(0), ev(0)),
		"truncated event":            good[:len(good)-2],
		"trailing byte":              cat(good, []byte{0}),
		"unknown flag bit":           one(1, 0, ev(1<<evFlagBits)),
		"zero optional field":        one(1, 1, ev(evDuration, uv(0))),
		"wide pvar mask":             one(1, 1, ev(evPVars, uv(1<<numPVarFields), uv(1))),
		"wide component mask":        one(1, 1, ev(evComponents, uv(1<<NumComponents), uv(1))),
		"zero masked value":          one(1, 1, ev(evPVars, uv(1), uv(0))),
	}
}

func TestReadTraceRejectsMalformed(t *testing.T) {
	good, cases := malformedDumps()
	if _, err := ReadTrace(bytes.NewReader(good)); err != nil {
		t.Fatalf("hand-built minimal dump rejected: %v", err)
	}
	for _, v := range []string{"1", "2", "3"} {
		if _, err := ReadTrace(bytes.NewReader(cases["version "+v])); err == nil || !strings.Contains(err.Error(), "version "+v+" is not read") {
			t.Errorf("a version %s dump is refused with %v, which does not name its version", v, err)
		}
	}
	for name, data := range cases {
		d, err := ReadTrace(bytes.NewReader(data))
		if err == nil {
			t.Errorf("%s: accepted as %+v", name, d)
			continue
		}
		if !strings.HasPrefix(err.Error(), "core: parse trace dump: ") {
			t.Errorf("%s: error %q is not a wrapped parse error", name, err)
		}
	}
	// Every proper prefix of a real dump is an error too.
	full := (&eventDump{Entity: "n0/cli", Events: goldenEvents()}).encode()
	for n := 0; n < len(full); n++ {
		if _, err := ReadTrace(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("prefix of %d of %d bytes accepted", n, len(full))
		}
	}
}

// TestReadTraceHostileCountsDoNotAllocate: a few bytes claiming 2^40 of
// anything are refused before storage is sized from the claim.
func TestReadTraceHostileCountsDoNotAllocate(t *testing.T) {
	head := cat([]byte(traceMagic), []byte{traceVersion}, uv(7), uv(0))
	huge := uv(1 << 40)
	for name, data := range map[string][]byte{
		"events":  cat(head, strTable("e"), uv(0), uv(0), huge, uv(0), uv(0)),
		"rows":    cat(head, strTable("e"), uv(0), uv(0), uv(0), huge, uv(0)),
		"values":  cat(head, strTable("e"), uv(0), uv(0), uv(0), uv(0), huge),
		"strings": cat(head, huge, uv(1), []byte("e")),
		"shapes":  cat(head, strTable("e"), huge, shapeDef(0, 0, 0, 0, 0)),
		"samples": cat(head, strTable("e"), uv(0), huge, uv(0), uv(0)),
	} {
		before := allocatedBytes()
		if _, err := ReadTrace(bytes.NewReader(data)); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if grew := allocatedBytes() - before; grew > 4096 {
			t.Errorf("%s: %d input bytes made ReadTrace allocate %d bytes", name, len(data), grew)
		}
	}
}

// TestReadTraceAllocsIndependentOfSize: reading a dump costs the same
// small number of allocations whether it holds 256 events or 4096: the
// five of every dump, and four for what pairs its requests' spans by the
// rule (the rows whose request repeats, and room for the halves, open
// starts and rows of the longest such request), these requests being
// the golden three repeated, each of them hundreds of overlapping spans.
func TestReadTraceAllocsIndependentOfSize(t *testing.T) {
	measure := func(n int) float64 {
		var evs []Event
		for len(evs) < n {
			evs = append(evs, goldenEvents()...)
		}
		data := (&eventDump{Entity: "n0/cli", Events: evs[:n]}).encode()
		rd := bytes.NewReader(data)
		return testing.AllocsPerRun(20, func() {
			rd.Reset(data)
			if _, err := ReadTrace(rd); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(256), measure(4096)
	if small != large || large > 9 {
		t.Fatalf("ReadTrace allocates %v times for 256 events, %v for 4096; want equal and <= 9", small, large)
	}
}

// TestReadTraceBytesPerDumpByte: decoding the dumps of the C7 fixture
// (cmd/sym/testdata/c7) allocates at most six bytes per byte of dump:
// the dump's bytes, its strings, its rows of 80 B and its value column
// (5.4x on go1.24/amd64; 15x when each record decoded into an Event, a
// PVarSample and a component array).
func TestReadTraceBytesPerDumpByte(t *testing.T) {
	files, err := filepath.Glob("../../cmd/sym/testdata/c7/*.trace.bin")
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixture dumps (%v)", err)
	}
	var dumped, allocated uint64
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		rd := bytes.NewReader(data)
		before := allocatedBytes()
		if _, err := ReadTrace(rd); err != nil {
			t.Fatal(err)
		}
		allocated += allocatedBytes() - before
		dumped += uint64(len(data))
	}
	ratio := float64(allocated) / float64(dumped)
	t.Logf("%d dump bytes decode into %d allocated (%.2fx)", dumped, allocated, ratio)
	if ratio > 6 {
		t.Fatalf("ReadTrace allocated %.2f bytes per dump byte, want <= 6", ratio)
	}
}

// fuzzSeeds is the committed seed corpus of FuzzReadTrace: the golden
// events' dump, an empty dump, one-event dumps using each optional field
// alone and all at once, and the golden dump cut at each section
// boundary.
func fuzzSeeds(t testing.TB) map[string][]byte {
	seeds := map[string][]byte{}
	golden := (&eventDump{Entity: "n0/cli", PID: 4242, Dropped: 3, Events: goldenEvents()}).encode()
	seeds["golden"] = golden
	seeds["empty"] = (&eventDump{}).encode()

	all := goldenEvents()[11] // t14: every optional field but Failed and QueueNanos
	all.Failed, all.QueueNanos = true, 250
	seeds["one-all"] = (&eventDump{Entity: "n0/cli", Events: []Event{all}}).encode()
	bare := Event{RequestID: 1, Order: 1, Timestamp: 1, Entity: "e", RPCName: "r"}
	for name, set := range map[string]func(*Event){
		"bare":     func(*Event) {},
		"failed":   func(e *Event) { e.Failed = true },
		"duration": func(e *Event) { e.Duration = -5 },
		"batch":    func(e *Event) { e.BatchID = 9 },
		"queue":    func(e *Event) { e.QueueNanos = 250 },
		"window":   func(e *Event) { e.WindowNanos = 30 },
		"sys": func(e *Event) {
			e.Sys = SysSample{PoolRunnable: -1, PoolBlocked: 2, HeapBytes: 1 << 20, Goroutines: 12}
		},
		"pvars":      func(e *Event) { e.PVars = all.PVars },
		"pvars-zero": func(e *Event) { e.PVars = &PVarSample{} },
		"components": func(e *Event) { e.Components = all.Components },
		"peer":       func(e *Event) { e.Peer = "p" },
		"kind":       func(e *Event) { e.Kind = -1 },
	} {
		ev := bare
		set(&ev)
		seeds["one-"+name] = (&eventDump{Entity: "e", Events: []Event{ev}}).encode()
	}

	// Spans the memo folds otherwise than the pairing rule pairs them:
	// two overlapping calls of one callpath, and a lone start and end.
	t1 := bare
	t14 := t1
	t14.Kind, t14.Order, t14.Timestamp, t14.Duration = EvOriginEnd, 3, 9, 8
	t1b, t14b := t1, t14
	t1b.Order, t1b.Timestamp, t14b.Order, t14b.Timestamp, t14b.Duration = 2, 2, 4, 12, 10
	seeds["span-overlap"] = (&eventDump{Entity: "e", Events: []Event{t1, t1b, t14, t14b}}).encode()
	t1b.RequestID, t14b.RequestID = 2, 3
	seeds["span-lone"] = (&eventDump{Entity: "e", Events: []Event{t1b, t14b}}).encode()

	// Section boundaries of the golden dump: after the magic, the
	// version, the pid/dropped pair, the string, shape and sample tables,
	// the counts, the first event, and one byte short of the end.
	tab := traceBuf{cap: len(goldenEvents())}
	tab.strs.number("n0/cli")
	for _, ev := range goldenEvents() {
		tab.emit(&ev, ev.PVars, ev.Components)
	}
	header := len(traceMagic) + 1 + len(uv(4242)) + len(uv(3))
	table := header + len(uv(uint64(len(tab.strs.vals))))
	for _, s := range tab.strs.vals {
		table += len(uv(uint64(len(s)))) + len(s)
	}
	shapes := table + len(uv(uint64(len(tab.shapes.vals))))
	for _, sh := range tab.shapes.vals {
		shapes += len(shapeDef(uint64(uint8(sh.kind)), sh.bc, uint64(sh.strs[0]), uint64(sh.strs[1]), uint64(sh.strs[2])))
	}
	samples := shapes + len(uv(uint64(len(tab.samples.vals))))
	for _, s := range tab.samples.vals {
		samples += len(uv(s.heap)) + len(binary.AppendVarint(nil, int64(s.goroutines)))
	}
	counts := samples + len(uv(uint64(tab.n))) + len(uv(uint64(tab.rows))) + len(uv(uint64(tab.vals)))
	first := len((&eventDump{Entity: "n0/cli", PID: 4242, Dropped: 3, Events: goldenEvents()[:1]}).encode())
	for name, n := range map[string]int{
		"magic": len(traceMagic), "version": len(traceMagic) + 1, "header": header,
		"table": table, "shapes": shapes, "samples": samples, "counts": counts, "event1": first, "short": len(golden) - 1,
	} {
		seeds["cut-"+name] = golden[:n]
	}

	// Tables out of order or out of turn, folds the span memo does not
	// make, and dumps of the last versions.
	_, bad := malformedDumps()
	for _, name := range []string{"version 1", "version 2", "version 3", "string index skips one", "duplicate shape", "unused shape",
		"shape index skips one", "duplicate sample", "sample index skips one",
		"fold before the first event", "fold into an end", "fold into a closed start",
		"fold into another request's start, pushed out of the memo", "fold past a newer start of its span",
		"full record of an end that folds", "fold across a reset"} {
		seeds["bad-"+strings.NewReplacer(" ", "-", ",", "", "'", "").Replace(name)] = bad[name]
	}
	return seeds
}

var updateCorpus = flag.Bool("update", false, "rewrite testdata/fuzz/ from fuzzSeeds and jsonlSeeds, and testdata/trace_golden.jsonl")

// TestFuzzSeedCorpusCurrent keeps the committed corpora equal to what
// fuzzSeeds and jsonlSeeds build, so a format change cannot leave stale
// seeds behind. `go test ./internal/core -run TestFuzzSeedCorpusCurrent
// -update` rewrites them.
func TestFuzzSeedCorpusCurrent(t *testing.T) {
	for target, seeds := range map[string]map[string][]byte{
		"FuzzReadTrace": fuzzSeeds(t), "FuzzReadEventsJSONL": jsonlSeeds(t),
	} {
		dir := filepath.Join("testdata/fuzz", target)
		if *updateCorpus {
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		for name, data := range seeds {
			want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
			path := filepath.Join(dir, "seed-"+name)
			if *updateCorpus {
				if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update)", err)
			}
			if string(got) != want {
				t.Errorf("%s is stale (run with -update)", path)
			}
		}
		if entries, err := os.ReadDir(dir); err == nil {
			for _, e := range entries {
				if name, ok := strings.CutPrefix(e.Name(), "seed-"); ok {
					if _, ok := seeds[name]; !ok {
						t.Errorf("%s/%s has no entry in the seeds (run with -update)", dir, e.Name())
					}
				}
			}
		}
	}
}

// FuzzReadTrace: whatever the bytes, ReadTrace returns an error or a
// dump whose span table encodes back to exactly those bytes, without
// panicking and without allocating more than a small multiple of the
// input.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		before := allocatedBytes()
		d, err := ReadTrace(bytes.NewReader(data))
		// The header sizes the rows and the value column, believed as far
		// as the bytes after it could hold: a row of 80 B per 4.5 bytes
		// and a value of 8 B per byte, so a hostile header reaches about
		// 26x on top of the dump's own bytes; the constant covers the
		// fixed overhead and the fuzz worker's own goroutines.
		if grew, limit := allocatedBytes()-before, uint64(len(data))*64+1<<16; grew > limit {
			t.Fatalf("%d input bytes made ReadTrace allocate %d bytes (limit %d)", len(data), grew, limit)
		}
		if err != nil {
			if !strings.HasPrefix(err.Error(), "core: parse trace dump: ") {
				t.Fatalf("error %q is not a wrapped parse error", err)
			}
			return
		}
		if again := reencode(d); !bytes.Equal(again, data) {
			t.Fatalf("accepted dump re-encodes differently:\n in  %x\n out %x", data, again)
		}
	})
}
