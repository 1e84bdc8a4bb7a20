package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"symbiosys/internal/mercury"
)

// TestEmitJSONLSinkAllocs pins the live path: with a JSONL sink attached
// and the strings already defined, an event costs the heap nothing,
// whether its annotations come beside it from the emitter's stack or it
// has none.
func TestEmitJSONLSinkAllocs(t *testing.T) {
	if mercury.RaceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	p := newProfiler("sink/p", StageFull, 8, 16) // the buffers fill at once; the sink sees every event
	p.AddTraceSink(NewJSONLTraceSink(io.Discard))
	ev, pv, comps := annotatedEvent()
	for name, emit := range map[string]func(){
		"annotated": func() { p.EmitSampled(7, ev, &pv, &comps) },
		"bare":      func() { emitAt(p, 7, ev) },
	} {
		emit() // header and definitions
		if n := testing.AllocsPerRun(1000, func() {
			ev.RequestID++
			ev.Timestamp += 41_000
			emit()
		}); n != 0 {
			t.Errorf("%s event through a live JSONL sink: %v allocations, want 0", name, n)
		}
	}
	if p.SinkErrors() != 0 {
		t.Fatalf("%d sink errors", p.SinkErrors())
	}
}

// TestJSONLSinkConcurrent: eight emitters share one sink. Every line of
// the stream is one JSON value, every string is defined above the first
// line that uses it, and the events read back are the events written.
func TestJSONLSinkConcurrent(t *testing.T) {
	const emitters, each = 8, 10_000
	var buf bytes.Buffer
	p := newProfiler("sink/p", StageFull, 8, 16)
	p.AddTraceSink(NewJSONLTraceSink(&buf))
	base, pv, comps := annotatedEvent()
	var wg sync.WaitGroup
	for e := 0; e < emitters; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			ev, pv, comps := base, pv, comps
			ev.Order, ev.Entity = uint64(e), fmt.Sprintf("n%d/loader", e)
			for k := 1; k <= each; k++ {
				ev.RequestID, ev.Timestamp = uint64(k), base.Timestamp+int64(k)
				ev.RPCName = fmt.Sprintf("rpc_%d_%d", e, k%7) // new strings keep arriving mid-stream
				pv.RPCsInvokedTotal, comps[CompOriginExec] = uint64(k), uint64(e)
				if k%2 == 0 {
					p.EmitSampled(uint64(e), ev, &pv, &comps)
				} else {
					emitAt(p, uint64(e), ev)
				}
			}
		}(e)
	}
	wg.Wait()
	if err := p.FlushSinks(); err != nil || p.SinkErrors() != 0 {
		t.Fatalf("flush: %v, %d sink errors", err, p.SinkErrors())
	}

	defined := map[string]int{} // by the key that numbers a definition
	for n, line := range bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n")) {
		var obj map[string]any
		if err := json.Unmarshal(line, &obj); err != nil {
			t.Fatalf("line %d is not one JSON object: %v\n%s", n+1, err, line)
		}
		for _, def := range []string{"s", "x", "y"} {
			if bytes.HasPrefix(line, []byte(`{"`+def+`":`)) {
				if defined[def]++; obj[def] != float64(defined[def]) {
					t.Fatalf("line %d defines %s %v, want %d", n+1, def, obj[def], defined[def])
				}
			}
		}
		for key, def := range map[string]string{"e": "s", "p": "s", "r": "s", "x": "x", "y": "y"} {
			if i, ok := obj[key].(float64); ok && int(i) > defined[def] {
				t.Fatalf("line %d says %s %v with %d defined above it", n+1, key, i, defined[def])
			}
		}
	}
	evs, truncated, err := ReadEventsJSONL(&buf)
	if err != nil || truncated != 0 || len(evs) != emitters*each {
		t.Fatalf("read back %d events (truncated %d, err %v), want %d", len(evs), truncated, err, emitters*each)
	}
	next := [emitters]uint64{}
	for _, ev := range evs {
		e := ev.Order
		next[e]++
		k := next[e] // one emitter's events stay in its order
		want := base
		want.Order, want.Entity, want.RequestID, want.Timestamp = e, fmt.Sprintf("n%d/loader", e), k, base.Timestamp+int64(k)
		want.RPCName = fmt.Sprintf("rpc_%d_%d", e, k%7)
		if k%2 == 0 {
			wpv, wc := pv, comps
			wpv.RPCsInvokedTotal, wc[CompOriginExec] = k, e
			want.PVars, want.Components = &wpv, &wc
		}
		if !reflect.DeepEqual(ev, want) {
			t.Fatalf("emitter %d's event %d read back as %+v (pvars %+v), want %+v", e, k, ev, ev.PVars, want)
		}
	}
}

// jsonlSeeds is the committed seed corpus of FuzzReadEventsJSONL
// (TestFuzzSeedCorpusCurrent keeps the files equal to it): the golden
// stream and hand-made ones, what a reader of other people's files meets.
func jsonlSeeds(t testing.TB) map[string][]byte {
	golden := string(encodeJSONL(t, goldenEvents()))
	// The header, three strings, then each shape and sample just above
	// the event that first uses it.
	lines := strings.SplitAfter(golden, "\n")
	head, strs, shape1, sample1, first := lines[0], strings.Join(lines[1:4], ""), lines[4], lines[5], lines[6]
	defs := strs + shape1 + sample1 // what the first event uses
	// Folds the span memo does not make: the first event is a t1 of
	// request 8589934593; endShape defines the t14 of its callpath.
	const endShape = `{"x":2,"k":3,"b":60730,"e":1,"p":2,"r":3}` + "\n"
	pushedOut := head + defs + first
	for id := 1; id <= memoSpans; id++ {
		pushedOut += fmt.Sprintf(`{"i":%d,"t":0,"x":1,"y":1}`+"\n", id)
	}
	pushedOut += fmt.Sprintf(`{"z":%d}`+"\n", memoSpans+1)
	seeds := map[string][]byte{}
	for name, stream := range map[string]string{
		"golden":            golden,
		"empty":             "",
		"cut-event":         golden[:len(golden)-9],
		"cut-definition":    head + lines[1] + lines[2][:9],
		"cut-header":        head[:30],
		"index-before-def":  head + lines[1] + shape1,
		"shape-before-def":  head + strs + sample1 + first,
		"sample-before-def": head + strs + shape1 + first,
		"duplicate-def":     head + strs + lines[2] + first,
		"duplicate-shape":   head + defs + `{"x":2,"b":60730,"e":1,"p":2,"r":3}` + "\n" + first,
		"skipped-shape":     head + strs + `{"x":2,"b":60730,"e":1,"p":2,"r":3}` + "\n",
		"skipped-sample":    head + strs + shape1 + `{"y":2,"sh":1048576,"sg":12}` + "\n",
		"empty-sample":      head + `{"y":1}` + "\n",
		"empty-shape":       head + `{"x":1}` + "\n",
		"unused-def":        head + defs + lines[7] + first,
		"unknown-key":       head + defs + `{"i":1,"zz":5}` + "\n" + first,
		"wide-mask":         head + defs + `{"i":1,"pv":[2048,1]}` + "\n" + first,
		"short-mask":        head + defs + `{"i":1,"c":[3,1]}` + "\n" + first,
		"no-header":         defs + first,
		"version-1":         `{"request_id":1,"order":1,"kind":0,"ts_ns":5,"entity":"e","rpc":"r","breadcrumb":7,"sys":{"pool_runnable":0,"pool_blocked":0}}` + "\n",
		"version-2":         `{"symbiosys_trace":2,"t0":5,"keys":{}}` + "\n" + `{"s":1,"v":"e"}` + "\n" + `{"i":1,"o":1,"b":7,"e":1}` + "\n",
		"version-3":         `{"symbiosys_trace":3,"t0":5,"keys":{}}` + "\n" + defs + first,
		"future-version":    `{"symbiosys_trace":5,"t0":0}` + "\n" + defs + first,
		"second-header":     golden + golden,
		"null-version":      `{"symbiosys_trace":null}` + "\n" + defs + first,
		"quoted-version":    `{"symbiosys_trace":"4","t0":0}` + "\n" + defs + first,
		"escapes":           head + `{"s":1,"v":"a\"b\\cé😀<\n"}` + "\n" + `{"x":1,"e":1,"r":1}` + "\n" + `{"t":0,"x":1}` + "\n",
		"zero-event":        head + "{}\n",
		"long-line":         head + `{"s":1,"v":"` + strings.Repeat("x", 64<<10) + `"}` + "\n" + `{"x":1,"e":1}` + "\n" + `{"i":1,"x":1}` + "\n",
		"full-end":          head + defs + first + endShape + `{"i":8589934593,"o":7,"d":2500,"t":30,"x":2,"y":1}` + "\n",
		"fold-before-first": head + `{"z":1,"d":5}` + "\n",
		"fold-into-end":     head + defs + first + endShape + `{"i":7,"t":5,"x":2,"y":1}` + "\n" + `{"z":1,"d":5}` + "\n",
		"fold-into-closed":  strings.Join(lines[:10], "") + `{"z":2,"d":900}` + "\n",
		"fold-pushed-out":   pushedOut,
		"fold-past-newer":   head + defs + first + first + `{"z":2}` + "\n",
		// The t14 of the first request after ResetMeasurements dropped
		// its t1, folded as if the memo had kept it.
		"fold-across-reset": head + defs + `{"i":9,"t":0,"x":1,"y":1}` + "\n" + `{"z":2,"d":2500}` + "\n",
		"fold-sample":       head + defs + first + `{"y":2,"sh":5}` + "\n" + `{"z":1,"d":3,"t":-1,"o":-2,"y":1}` + "\n",
	} {
		seeds[name] = []byte(stream)
	}
	return seeds
}

// TestReadEventsJSONLSeeds: which of the seeds read, and what the
// refusals say.
func TestReadEventsJSONLSeeds(t *testing.T) {
	seeds := jsonlSeeds(t)
	for name, want := range map[string]struct {
		events, truncated int
		err               string // "" accepts
	}{
		"golden": {12, 0, ""}, "empty": {0, 0, ""}, "unknown-key": {2, 0, ""}, "full-end": {2, 0, ""}, "fold-sample": {2, 0, ""},
		"cut-event": {11, 1, ""}, "cut-definition": {0, 1, ""}, "cut-header": {0, 1, ""},
		"escapes": {1, 0, ""}, "zero-event": {1, 0, ""}, "long-line": {1, 0, ""},
		"index-before-def":  {0, 0, "line 3: string 2 used with 1 defined"},
		"shape-before-def":  {0, 0, "line 6: shape 1 used with 0 defined"},
		"sample-before-def": {0, 0, "line 6: sample 1 used with 0 defined"},
		"duplicate-def":     {0, 0, "line 5: definition of string 2 where 4 is next"},
		"duplicate-shape":   {0, 0, "line 7: definition of shape 2 repeats shape 1"},
		"skipped-shape":     {0, 0, "line 5: definition of shape 2 where 1 is next"},
		"skipped-sample":    {0, 0, "line 6: definition of sample 2 where 1 is next"},
		"empty-sample":      {0, 0, "line 2: definition of sample 1 repeats sample 0"},
		"empty-shape":       {0, 0, "line 2: definition of shape 1 repeats shape 0"},
		"unused-def":        {0, 0, "line 7: shape 2 is defined but never used"},
		"wide-mask":         {0, 0, `line 7: key "pv" has 1 values behind a presence mask for 11 fields: [2048 1]`},
		"short-mask":        {0, 0, `line 7: key "c" has 1 values behind a presence mask for 9 fields: [3 1]`},
		"second-header":     {0, 0, "line 21: a second header line"},
		"null-version":      {0, 0, "line 1: JSONL trace stream is not version 4: it says version 0"},
		"quoted-version":    {0, 0, "line 1: json: cannot unmarshal string into Go struct field jsonlLine.symbiosys_trace of type uint64"},
		"no-header":         {0, 0, "line 1: JSONL trace stream is not version 4: no header line, as in version 1"},
		"version-1":         {0, 0, "line 1: JSONL trace stream is not version 4: no header line, as in version 1"},
		"version-2":         {0, 0, "line 1: JSONL trace stream is not version 4: it says version 2"},
		"version-3":         {0, 0, "line 1: JSONL trace stream is not version 4: it says version 3"},
		"future-version":    {0, 0, "line 1: JSONL trace stream is not version 4: it says version 5"},
		"fold-before-first": {0, 0, "line 2: a fold 1 event lines back with 0 above it"},
		"fold-into-end":     {0, 0, "line 10: a fold 1 event lines back into an event of kind origin_end"},
		"fold-into-closed":  {0, 0, "line 11: a fold 2 event lines back into a start the span memo does not hold open for it"},
		"fold-pushed-out":   {0, 0, fmt.Sprintf("line %d: a fold %d event lines back into a start the span memo does not hold open for it", 8+memoSpans, memoSpans+1)},
		"fold-past-newer":   {0, 0, "line 9: a fold 2 event lines back into a start the span memo does not hold open for it"},
		"fold-across-reset": {0, 0, "line 8: a fold 2 event lines back with 1 above it"},
	} {
		evs, truncated, err := ReadEventsJSONL(bytes.NewReader(seeds[name]))
		switch {
		case want.err == "" && (err != nil || len(evs) != want.events || truncated != want.truncated):
			t.Errorf("%s: %d events, truncated %d, err %v; want %d, %d, nil", name, len(evs), truncated, err, want.events, want.truncated)
		case want.err != "" && (err == nil || !strings.HasSuffix(err.Error(), want.err)):
			t.Errorf("%s: err %v, want ... %s", name, err, want.err)
		case strings.Contains(want.err, "version") && !errors.Is(err, ErrTraceStreamVersion):
			t.Errorf("%s: %v is not ErrTraceStreamVersion", name, err)
		}
		delete(seeds, name)
	}
	for name := range seeds {
		t.Errorf("seed %s has no expectation here", name)
	}
	evs, _, _ := ReadEventsJSONL(bytes.NewReader(jsonlSeeds(t)["escapes"]))
	if want := "a\"b\\cé\U0001F600<\n"; len(evs) != 1 || evs[0].Entity != want || evs[0].RPCName != want {
		t.Errorf("escaped definition read back as %+v, want %q", evs, want)
	}
	// An end spelled in full where the memo folds reads as the t14 it
	// spells, and a sink writes it back as a fold.
	evs, _, _ = ReadEventsJSONL(bytes.NewReader(jsonlSeeds(t)["full-end"]))
	want := goldenEvents()[0]
	want.Kind, want.Order, want.Timestamp, want.Duration, want.Sys.PoolRunnable, want.Sys.PoolBlocked, want.PVars =
		EvOriginEnd, 7, want.Timestamp+30, 2500, 0, 0, nil
	if len(evs) != 2 || !reflect.DeepEqual(evs[1], want) {
		t.Errorf("full end line read back as %+v, want %+v", evs, want)
	} else if again := encodeJSONL(t, evs); !bytes.Contains(again, []byte("\n"+jsonlFold+"1,")) {
		t.Errorf("a sink writes the end back in full:\n%s", again)
	}
	// A fold's t, o and y are residuals against its start, signed.
	evs, _, _ = ReadEventsJSONL(bytes.NewReader(jsonlSeeds(t)["fold-sample"]))
	want.Order, want.Timestamp, want.Duration, want.Sys.HeapBytes, want.Sys.Goroutines =
		goldenEvents()[0].Order-1, goldenEvents()[0].Timestamp+2, 3, 5, 0
	if len(evs) != 2 || !reflect.DeepEqual(evs[1], want) {
		t.Errorf("fold read back as %+v, want %+v", evs, want)
	}
}

// FuzzReadEventsJSONL: whatever the bytes, ReadEventsJSONL returns an
// error or events that a sink writes and the reader reads back equal,
// without panicking and without allocating more than a small multiple of
// the input and of the events it spells.
func FuzzReadEventsJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		before := allocatedBytes()
		evs, _, err := ReadEventsJSONL(bytes.NewReader(data))
		// What a line honestly costs is its bytes, encoding/json's state for
		// one value and an Event in a slice that append regrows (five times
		// its final size, all told); "{}\n" is the dearest. The constant
		// covers the scanner's buffer and the fuzz worker's own goroutines.
		lines := uint64(bytes.Count(data, []byte("\n")) + 1)
		if grew, limit := allocatedBytes()-before, 1<<16+10*(uint64(len(data))+lines*uint64(unsafe.Sizeof(Event{}))); grew > limit {
			t.Fatalf("%d input bytes in %d lines made ReadEventsJSONL allocate %d bytes (limit %d)", len(data), lines, grew, limit)
		}
		if err != nil {
			if !strings.HasPrefix(err.Error(), "core: parse JSONL trace stream at line ") {
				t.Fatalf("error %q is not a wrapped parse error", err)
			}
			return
		}
		again, truncated, err := ReadEventsJSONL(bytes.NewReader(encodeJSONL(t, evs)))
		if err != nil || truncated != 0 || !reflect.DeepEqual(again, evs) {
			t.Fatalf("accepted events re-encode and read back differently (truncated %d, err %v):\n in  %+v\n out %+v", truncated, err, evs, again)
		}
	})
}
