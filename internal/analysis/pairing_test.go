package analysis

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"symbiosys/internal/core"
)

// pairingDumps are dumps on which the codec's span memo, which folds an
// end into the newest open start of its span, and the pairing rule,
// which closes the oldest in Lamport order, disagree or would: each
// case is one process's events, in the order it dumped them.
func pairingDumps() map[string][]*core.TraceDump {
	bc := uint64(core.Breadcrumb(0).Push("a_rpc"))
	ev := func(id, order uint64, kind core.EventKind, entity string, ts, dur int64) core.Event {
		peer := "srv"
		if entity == "srv" {
			peer = "cli"
		}
		return core.Event{RequestID: id, Order: order, Kind: kind, Timestamp: pathTraceBase + ts, Duration: dur,
			Entity: entity, Peer: peer, RPCName: "a_rpc", Breadcrumb: bc}
	}
	t1, t5, t8, t14 := core.EvOriginStart, core.EvTargetStart, core.EvTargetEnd, core.EvOriginEnd
	failed := ev(4, 2, t14, "cli", 40, 40)
	failed.Failed = true
	cases := map[string][]core.Event{
		// Two overlapping calls on one callpath: the memo folds the
		// first end into the second start, the rule closes the first.
		"overlap": {ev(1, 1, t1, "cli", 0, 0), ev(1, 2, t1, "cli", 10, 0), ev(1, 3, t14, "cli", 100, 100), ev(1, 4, t14, "cli", 130, 120)},
		// A start no end closes, an end with no start on either side.
		"lone halves": {ev(2, 1, t1, "cli", 0, 0), ev(3, 4, t14, "cli", 50, 40), ev(3, 3, t8, "srv", 45, 20)},
		// A failed attempt and its retry on one callpath, both sides in
		// one dump.
		"failed attempt": {ev(4, 1, t1, "cli", 0, 0), failed, ev(4, 3, t1, "cli", 60, 0),
			ev(4, 4, t5, "srv", 70, 0), ev(4, 5, t8, "srv", 80, 10), ev(4, 6, t14, "cli", 90, 30)},
		// An end the memo folds though its Lamport order is below its
		// start's: the rule takes the end first, and pairs neither.
		"end before start in Lamport order": {ev(5, 5, t1, "cli", 0, 0), ev(5, 3, t14, "cli", 20, 20)},
	}
	// An end whose start more than the memo's worth of other starts
	// pushed out: the memo cannot fold it, the rule pairs it.
	pushed := []core.Event{ev(6, 1, t1, "cli", 0, 0)}
	for k := uint64(0); k < 130; k++ {
		pushed = append(pushed, ev(100+k, 1, t1, "cli", int64(k), 0))
	}
	cases["pushed out of the memo"] = append(pushed, ev(6, 2, t14, "cli", 500, 500))

	out := map[string][]*core.TraceDump{}
	for name, evs := range cases {
		out[name] = []*core.TraceDump{core.NewTraceDump("cli", 0, 0, evs)}
	}
	// A t14 recorded after ResetMeasurements dropped its t1, beside a
	// request that starts after the reset.
	p := core.NewProfiler("cli", core.StageFull)
	p.Emit(ev(7, 1, t1, "cli", 0, 0))
	p.ResetMeasurements()
	p.Emit(ev(8, 1, t1, "cli", 10, 0))
	p.Emit(ev(7, 2, t14, "cli", 20, 20))
	p.Emit(ev(8, 2, t14, "cli", 30, 20))
	out["reset between start and end"] = []*core.TraceDump{p.DumpTrace()}
	return out
}

// TestSpanTablePairingMatchesOracle: the spans of a trace set are the
// pairing rule's, request by request — what the event pairing the span
// tables replaced (oracleSpansOf, over the events Events rebuilds in
// Lamport order) returns — over the committed dumps of four runs and
// over dumps built for the cases where the codec's fold and the rule
// part ways.
func TestSpanTablePairingMatchesOracle(t *testing.T) {
	sets := pairingDumps()
	for _, dir := range []string{"c7", "runs/mobject", "runs/chaos-faulted", "runs/batch-w8"} {
		files, err := filepath.Glob(filepath.Join("../../cmd/sym/testdata", dir, "*.trace.bin"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no trace dumps (%v)", dir, err)
		}
		for _, name := range files {
			f, err := os.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			d, err := core.ReadTrace(f)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			sets[dir] = append(sets[dir], d)
		}
	}
	for name, dumps := range sets {
		ts := MergeTraces(dumps)
		want := oracleRequests(ts)
		walked := 0
		ts.EachRequest(func(id uint64, events int, spans []Span) {
			walked++
			wantSpans := oracleSpansOf(id, want[id])
			if events != len(want[id]) || (len(spans) > 0 || len(wantSpans) > 0) && !reflect.DeepEqual(spans, wantSpans) {
				t.Fatalf("%s request %#x: %d events and spans\n%+v\nthe rule: %d events and spans\n%+v", name, id, events, spans, len(want[id]), wantSpans)
			}
			if got := ts.Spans(id); !reflect.DeepEqual(got, wantSpans) {
				t.Fatalf("%s request %#x: Spans differs from the rule:\n got %+v\nwant %+v", name, id, got, wantSpans)
			}
		})
		if walked != len(want) || ts.IncompleteRequests() != oracleIncompleteRequests(ts) {
			t.Fatalf("%s: walked %d requests of %d, %d incomplete of the rule's %d", name, walked, len(want), ts.IncompleteRequests(), oracleIncompleteRequests(ts))
		}
	}
	// The rule's pairing of the overlap, spelled out: each end closes
	// the start opened first.
	spans := MergeTraces(sets["overlap"]).Spans(1)
	if len(spans) != 2 || spans[0].StartNanos != pathTraceBase || spans[0].DurNanos != 100 || spans[1].DurNanos != 120 {
		t.Fatalf("overlapping spans paired as %+v", spans)
	}
}
