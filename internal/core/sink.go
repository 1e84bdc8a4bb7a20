package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"sync"
)

// TraceSink consumes trace events as a Profiler records them. The
// Profiler's shard buffers hold the run's events for end-of-run dumps; a
// sink attached via Profiler.AddTraceSink additionally observes the live
// stream, so exporters (JSONL files, Zipkin/OTLP adapters) consume
// events instead of owning the buffers.
type TraceSink interface {
	// WriteEvent consumes one event. Implementations are called from
	// hot measurement paths and must be safe for concurrent use. The
	// event is borrowed: what ev.PVars and ev.Components point to is
	// valid until WriteEvent returns and overwritten afterwards, so a
	// sink encodes the event on the spot or keeps copies of both.
	WriteEvent(ev Event) error
	// Flush forces any buffered output out (end of run).
	Flush() error
}

// ProfileSink consumes merged per-process profile snapshots.
type ProfileSink interface {
	// WriteProfileDump consumes one process's merged profile.
	WriteProfileDump(d *ProfileDump) error
	// Flush forces any buffered output out.
	Flush() error
}

// jsonlWriter is the JSONL sink's output: a buffered writer
// behind a mutex, whose first error sticks — it is retained and reported
// by every later write and Flush, so an exporter that only checks the
// final Flush (e.g. margo's Shutdown) still observes mid-run losses.
type jsonlWriter struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	err error
}

// check retains the first write error.
func (w *jsonlWriter) check(_ int, err error) {
	if err != nil && w.err == nil {
		w.err = err
	}
}

// Flush drains the buffered output to the underlying writer, returning
// the first error the sink has seen (including earlier write failures).
func (w *jsonlWriter) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.check(0, w.bw.Flush())
	return w.err
}

// Err reports the sink's sticky error, if any.
func (w *jsonlWriter) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// The JSONL trace stream, version 4 (DESIGN.md §10 "Why JSONL stays").
// Every line is one JSON object whose first key says what it is:
//
//	{"symbiosys_trace":4,"t0":<ns>,"keys":{...}}    header, first line
//	{"s":<n>,"v":"<string>"}                        definition of string n
//	{"x":<n>,"k":..,"b":..,"e":..,"p":..,"r":..}    definition of shape n
//	{"y":<n>,"sh":..,"sg":..}                       definition of sample n
//	{"z":<n>,...,"t":..,"o":..,"y":..}              fold: an end event
//	{"i":..,"o":..,...,"t":..,"x":..,"y":..}        event
//
// A shape is an event's kind, breadcrumb and the string numbers of its
// entity, peer and RPC; a sample is the heap size and goroutine count
// of its SysSample. Each table is numbered from 1 in first-use order,
// and its number 0 is the zero value (the empty string, the shape of
// all zeros, the zero sample), never defined. A definition is written
// once, just above the first line that uses it. An event line omits
// every zero but t (a missing key is 0, false or ""), so it never opens
// with a definition's key; t is the timestamp less the header's t0, and
// o, an order, is read modulo 2^64 (one past 2^63 is spelled negative).
// pv and c are the trace dump's masked counters: the presence mask, then
// the nonzero values.
//
// A fold is an end event (t14, t8) that the span memo (spanMemo) folds
// into its start, z event lines (folds included) above it. It spells the
// event line's annotations, d to c; its request ID, breadcrumb and
// strings are the start's, and its kind the start's partner. Its t is
// the timestamp less the start's plus d, its o the order less the
// start's plus one, and its y its sample number less the start's; each
// is omitted when zero. A line depends on the header, the definitions
// above it and, for a fold, the event lines between it and its start.
const (
	jsonlVersion = 4
	jsonlHeader  = `{"symbiosys_trace":`
	jsonlString  = `{"s":`
	jsonlShape   = `{"x":`
	jsonlSample  = `{"y":`
	jsonlFold    = `{"z":`
	// jsonlLegend is the header's "keys" object: the keys of an event
	// line, in the order WriteEvent spells them, then the fold's and
	// those of the shape and sample definitions.
	jsonlLegend = `"i":"request_id","o":"order","d":"dur_ns","bi":"batch_id","f":"failed","q":"queue_ns","w":"window_ns",` +
		`"sr":"sys.pool_runnable","sb":"sys.pool_blocked","pv":"pvars: mask, nonzero values",` +
		`"c":"components: mask, nonzero values","t":"ts_ns - t0","x":"a shape number","y":"a sample number",` +
		`"z":"a fold: event lines back to its start; its t, o and y less the start's t + d, o + 1 and y",` +
		`"k":"kind","b":"breadcrumb","e":"entity, a string number","p":"peer, a string number",` +
		`"r":"rpc, a string number","sh":"sys.heap_bytes","sg":"sys.goroutines"`
)

// jsonlLine is a line of any of the six kinds as ReadEventsJSONL
// decodes it: the header's and the string definition's keys, then the
// legend's.
type jsonlLine struct {
	Version uint64 `json:"symbiosys_trace"`
	T0      int64  `json:"t0"`
	S       uint64 `json:"s"`
	V       string `json:"v"`

	I  uint64    `json:"i"`
	O  int64     `json:"o"`
	D  int64     `json:"d"`
	BI uint64    `json:"bi"`
	F  uint64    `json:"f"`
	Q  int64     `json:"q"`
	W  int64     `json:"w"`
	SR int64     `json:"sr"`
	SB int64     `json:"sb"`
	PV []uint64  `json:"pv"`
	C  []uint64  `json:"c"`
	T  int64     `json:"t"`
	X  uint64    `json:"x"`
	Y  int64     `json:"y"`
	Z  uint64    `json:"z"`
	K  EventKind `json:"k"`
	B  uint64    `json:"b"`
	E  uint64    `json:"e"`
	P  uint64    `json:"p"`
	R  uint64    `json:"r"`
	SH uint64    `json:"sh"`
	SG int       `json:"sg"`
}

// appendUint appends `"key":v,` for a nonzero v.
func appendUint(b []byte, key string, v uint64) []byte {
	if v == 0 {
		return b
	}
	return append(strconv.AppendUint(append(b, key...), v, 10), ',')
}

// appendInt is appendUint for the signed fields.
func appendInt(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return append(strconv.AppendInt(append(b, key...), v, 10), ',')
}

// appendMasked appends `"key":[mask,nonzero values...],`.
func appendMasked(b []byte, key string, vals []uint64) []byte {
	var mask uint64
	for i, v := range vals {
		if v != 0 {
			mask |= 1 << i
		}
	}
	b = strconv.AppendUint(append(append(b, key...), '['), mask, 10)
	for _, v := range vals {
		if v != 0 {
			b = strconv.AppendUint(append(b, ','), v, 10)
		}
	}
	return append(b, ']', ',')
}

// JSONLTraceSink streams trace events as JSON Lines, in the version 4
// grammar above, to an io.Writer — the on-line export format, ingestible
// with ReadEventsJSONL (and by sym, from a dump directory). An event is
// encoded by hand on its emitter's stack; the sink's mutex covers the
// tables and the span memo, the keys that depend on them and the copy
// into the buffer.
type JSONLTraceSink struct {
	jsonlWriter
	tab     traceTables // entry 0 of each table is its zero value
	t0      int64       // the first event's timestamp, as in the header
	n       uint64      // event lines written: the next one's index
	started bool        // the header is written
}

// NewJSONLTraceSink wraps w in a streaming JSONL trace sink.
func NewJSONLTraceSink(w io.Writer) *JSONLTraceSink {
	return &JSONLTraceSink{jsonlWriter: jsonlWriter{bw: bufio.NewWriter(w)}}
}

// zeroEntries numbers the zero values 0 in t, as the stream does.
func (t *traceTables) zeroEntries() {
	t.strs.number("")
	t.shapes.number(shape{})
	t.internSample(sample{})
}

// jsonlHead is room before a line's annotations for the longest head
// that opens it: `{"i":` and `,"o":` with twenty digits each, and a
// comma.
const jsonlHead = 56

// WriteEvent appends one event line, or a fold if the event ends a span
// whose start the stream's memo holds, behind the header if it is the
// sink's first and behind the definitions of the strings, shape and
// sample it is the first to use.
func (s *JSONLTraceSink) WriteEvent(ev Event) error {
	// Room for the longest line: fourteen keys of up to five bytes and
	// 12 + (1+numPVarFields) + (1+NumComponents) numbers of up to twenty
	// digits and a comma. It also fits the buffer's 4 KiB whole. The
	// annotations go in first, behind room for the head, which depends
	// on the memo.
	var line [1024]byte
	b := line[:jsonlHead]
	b = appendInt(b, `"d":`, ev.Duration)
	b = appendUint(b, `"bi":`, ev.BatchID)
	if ev.Failed {
		b = append(b, `"f":1,`...)
	}
	b = appendInt(b, `"q":`, ev.QueueNanos)
	b = appendInt(b, `"w":`, ev.WindowNanos)
	b = appendInt(b, `"sr":`, ev.Sys.PoolRunnable)
	b = appendInt(b, `"sb":`, ev.Sys.PoolBlocked)
	if ev.PVars != nil {
		var vals [numPVarFields]uint64
		for i, p := range ev.PVars.fields() {
			vals[i] = *p
		}
		b = appendMasked(b, `"pv":`, vals[:])
	}
	if ev.Components != nil {
		b = appendMasked(b, `"c":`, ev.Components[:])
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started {
		s.started, s.t0 = true, ev.Timestamp
		s.tab.zeroEntries()
		s.check(fmt.Fprintf(s.bw, "%s%d,\"t0\":%d,\"keys\":{%s}}\n", jsonlHeader, jsonlVersion, s.t0, jsonlLegend))
	}
	var head [jsonlHead]byte
	h := head[:0]
	pos := s.n
	s.n++
	if sp := s.tab.spans.close(&ev, s.tab.strs.vals, s.tab.shapes.vals); sp != nil {
		h = append(strconv.AppendUint(append(h, jsonlFold...), pos-sp.pos, 10), ',')
		b = appendInt(b, `"t":`, ev.Timestamp-(sp.ts+ev.Duration)) // all three wrap, as the reader's sums do
		b = appendInt(b, `"o":`, int64(ev.Order-(sp.order+1)))
		b = appendInt(b, `"y":`, int64(s.sample(&ev.Sys))-int64(sp.sample))
	} else {
		shape, sample := s.shape(&ev), s.sample(&ev.Sys)
		s.tab.spans.open(&ev, pos, shape, sample)
		h = appendUint(append(h, '{'), `"i":`, ev.RequestID)
		h = appendInt(h, `"o":`, int64(ev.Order))
		b = append(strconv.AppendInt(append(b, `"t":`...), ev.Timestamp-s.t0, 10), ',') // wraps; the reader's sum wraps back
		b = appendUint(b, `"x":`, shape)
		b = appendUint(b, `"y":`, sample)
	}
	from := jsonlHead - len(h)
	copy(line[from:], h)
	s.writeLine(b[from:])
	return s.err
}

// writeLine ends the line b holds (its last key with a trailing comma)
// and copies it into the buffer's own spare room: handed a slice of the
// caller's stack, bufio would move the line to the heap.
func (s *JSONLTraceSink) writeLine(b []byte) {
	if b[len(b)-1] == ',' {
		b = b[:len(b)-1]
	}
	b = append(b, '}', '\n')
	if s.bw.Available() < len(b) {
		s.bw.Flush() // a failure sticks in bw and comes back from Write
	}
	s.check(s.bw.Write(append(s.bw.AvailableBuffer(), b...)))
}

// shape returns the number of ev's shape in the stream, writing the
// definition lines of the strings and the shape it is the first to use.
func (s *JSONLTraceSink) shape(ev *Event) uint64 {
	strs, shapes := len(s.tab.strs.vals), len(s.tab.shapes.vals)
	i := s.tab.shapeOf(ev)
	for n, str := range s.tab.strs.vals[strs:] {
		// Strings are rare: encoding/json owns the escaping.
		q, _ := json.Marshal(str)
		s.check(fmt.Fprintf(s.bw, "%s%d,\"v\":%s}\n", jsonlString, strs+n, q))
	}
	if len(s.tab.shapes.vals) > shapes {
		sh := &s.tab.shapes.vals[i]
		var line [128]byte
		b := strconv.AppendUint(append(line[:0], jsonlShape...), i, 10)
		b = append(b, ',')
		b = appendInt(b, `"k":`, int64(sh.kind))
		b = appendUint(b, `"b":`, sh.bc)
		b = appendUint(b, `"e":`, uint64(sh.strs[0]))
		b = appendUint(b, `"p":`, uint64(sh.strs[1]))
		b = appendUint(b, `"r":`, uint64(sh.strs[2]))
		s.writeLine(b)
	}
	return i
}

// sample returns the number of sys's sample in the stream, writing its
// definition line on first use.
func (s *JSONLTraceSink) sample(sys *SysSample) uint64 {
	n := len(s.tab.samples.vals)
	i := s.tab.internSample(sampleOf(sys))
	if len(s.tab.samples.vals) > n {
		var line [96]byte
		b := strconv.AppendUint(append(line[:0], jsonlSample...), i, 10)
		b = append(b, ',')
		b = appendUint(b, `"sh":`, sys.HeapBytes)
		b = appendInt(b, `"sg":`, int64(sys.Goroutines))
		s.writeLine(b)
	}
	return i
}

// ErrTraceStreamVersion is ReadEventsJSONL's refusal of a stream that is
// not in the version 4 grammar: one written before it or by a later
// build.
var ErrTraceStreamVersion = errors.New("JSONL trace stream is not version 4")

// ReadEventsJSONL parses a JSONL trace event stream (the JSONLTraceSink
// format) back into the events written, a line at a time. A truncated
// final line — the signature of a streaming sink cut off mid-write
// (SIGINT, crashed process, full disk) — is tolerated rather than fatal:
// the parsed prefix is returned along with the count of discarded
// trailing lines, so one interrupted stream does not abort a whole-run
// analysis. A line that does not parse and is NOT the last of the stream
// still fails, and so does a line anywhere that parses but breaks the
// grammar: a number no definition above it defines, a definition out of
// turn, one that repeats an earlier entry or the zero value, or one no
// line uses by the end of an uncut stream, and a fold whose start is not
// the open start the span memo holds for it. That is corruption, not
// truncation. As encoding/json does, the reader skips a key it does not
// know, and a key a line of its kind does not use. An event line of an
// end the memo would fold is read as it is: the stream, unlike a dump,
// may spell an event either way.
func ReadEventsJSONL(r io.Reader) (events []Event, truncated int, err error) {
	fail := func(line int, err error) ([]Event, int, error) {
		return nil, 0, fmt.Errorf("core: parse JSONL trace stream at line %d: %w", line, err)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 16<<20) // a definition runs as long as its string
	var (
		t0      int64 // the header's base timestamp
		defs    jsonlDefs
		started bool  // the header is read
		cut     error // why line cutLine did not parse, held until a line follows it
		cutLine int
		ln      jsonlLine // one for all lines, so that a line costs the heap only its event
	)
	for line := 1; sc.Scan(); line++ {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if cut != nil {
			return fail(cutLine, cut)
		}
		header := bytes.HasPrefix(raw, []byte(jsonlHeader))
		if !header && !started {
			return fail(line, fmt.Errorf("%w: no header line, as in version 1", ErrTraceStreamVersion))
		}
		ln = jsonlLine{}
		if cut, cutLine = json.Unmarshal(raw, &ln), line; cut != nil {
			continue
		}
		var err error
		switch {
		case header && ln.Version != jsonlVersion:
			return fail(line, fmt.Errorf("%w: it says version %d", ErrTraceStreamVersion, ln.Version))
		case header && started:
			return fail(line, errors.New("a second header line"))
		case header:
			t0, started = ln.T0, true
			defs.tab.zeroEntries()
			defs.unused = [numTables][]int{{0}, {0}, {0}}
		case bytes.HasPrefix(raw, []byte(jsonlString)):
			if err = defs.inTurn(tabStrings, ln.S); err == nil {
				err = defs.define(tabStrings, ln.S, uint64(defs.tab.strs.number(ln.V)), line)
			}
		case bytes.HasPrefix(raw, []byte(jsonlShape)):
			if err = defs.inTurn(tabShapes, ln.X); err == nil {
				err = defs.use(tabStrings, ln.E, ln.P, ln.R)
			}
			if err == nil {
				sh := shape{bc: ln.B, kind: ln.K, strs: [3]uint32{uint32(ln.E), uint32(ln.P), uint32(ln.R)}}
				err = defs.define(tabShapes, ln.X, uint64(defs.tab.shapes.number(sh)), line)
			}
		case bytes.HasPrefix(raw, []byte(jsonlSample)):
			if err = defs.inTurn(tabSamples, uint64(ln.Y)); err == nil {
				err = defs.define(tabSamples, uint64(ln.Y), defs.tab.internSample(sample{ln.SH, ln.SG}), line)
			}
		case bytes.HasPrefix(raw, []byte(jsonlFold)):
			var ev Event
			if ev, err = ln.fold(events, &defs); err == nil {
				events = append(events, ev)
			}
		default:
			var ev Event
			if ev, err = ln.event(t0, &defs); err == nil {
				// An end in full closes its start as a fold would.
				defs.tab.spans.close(&ev, defs.tab.strs.vals, defs.tab.shapes.vals)
				defs.tab.spans.open(&ev, uint64(len(events)), ln.X, uint64(ln.Y))
				events = append(events, ev)
			}
		}
		if err != nil {
			return fail(line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("core: read JSONL trace stream: %w", err)
	}
	if cut != nil {
		// The line cut off may be the one that used the last definitions.
		return events, 1, nil
	}
	for table, lines := range defs.unused {
		for n, line := range lines {
			if line != 0 {
				return fail(line, fmt.Errorf("%s %d is defined but never used", tableNames[table], n))
			}
		}
	}
	return events, 0, nil
}

// jsonlDefs is what a stream's reader knows of the definitions above a
// line: the tables, numbered as the sink numbers them, and per entry the
// line that defined it until a line uses it (0 once used).
type jsonlDefs struct {
	tab    traceTables
	unused [numTables][]int
}

// inTurn checks that a definition of entry n of table comes in turn.
func (d *jsonlDefs) inTurn(table int, n uint64) error {
	if next := uint64(len(d.unused[table])); n != next {
		return fmt.Errorf("definition of %s %d where %d is next", tableNames[table], n, next)
	}
	return nil
}

// define records the definition on line of entry n of table, which the
// table numbered got when it was added: a definition that repeats an
// entry, or the zero value 0, is an error.
func (d *jsonlDefs) define(table int, n, got uint64, line int) error {
	if got != n {
		return fmt.Errorf("definition of %s %d repeats %s %d", tableNames[table], n, tableNames[table], got)
	}
	d.unused[table] = append(d.unused[table], line)
	return nil
}

// use marks entries of table used, failing on one not defined yet.
func (d *jsonlDefs) use(table int, ns ...uint64) error {
	unused := d.unused[table]
	for _, n := range ns {
		if n >= uint64(len(unused)) {
			return fmt.Errorf("%s %d used with %d defined", tableNames[table], n, len(unused)-1)
		}
		unused[n] = 0
	}
	return nil
}

// event is the Event an event line spells under the header's t0 and the
// definitions above the line.
func (ln *jsonlLine) event(t0 int64, defs *jsonlDefs) (Event, error) {
	if err := defs.use(tabShapes, ln.X); err != nil {
		return Event{}, err
	}
	if err := defs.use(tabSamples, uint64(ln.Y)); err != nil {
		return Event{}, err
	}
	strs := defs.tab.strs.vals
	sh, sm := &defs.tab.shapes.vals[ln.X], &defs.tab.samples.vals[ln.Y]
	ev := Event{RequestID: ln.I, Order: uint64(ln.O), Kind: sh.kind, Timestamp: t0 + ln.T,
		Entity: strs[sh.strs[0]], Peer: strs[sh.strs[1]], RPCName: strs[sh.strs[2]], Breadcrumb: sh.bc,
		Sys: SysSample{HeapBytes: sm.heap, Goroutines: sm.goroutines}}
	return ev, ln.annotate(&ev)
}

// fold is the Event a fold line spells after the events prior: the end
// of the span whose start it refers back to, which must be the open
// start the stream's memo holds for it.
func (ln *jsonlLine) fold(prior []Event, defs *jsonlDefs) (Event, error) {
	pos := uint64(len(prior))
	if ln.Z == 0 || ln.Z > pos {
		return Event{}, fmt.Errorf("a fold %d event lines back with %d above it", ln.Z, pos)
	}
	start := &prior[pos-ln.Z]
	if !isSpanStart(start.Kind) {
		return Event{}, fmt.Errorf("a fold %d event lines back into an event of kind %v", ln.Z, start.Kind)
	}
	ev := Event{RequestID: start.RequestID, Kind: spanPartner(start.Kind), Breadcrumb: start.Breadcrumb,
		Entity: start.Entity, Peer: start.Peer, RPCName: start.RPCName}
	sp := defs.tab.spans.close(&ev, defs.tab.strs.vals, defs.tab.shapes.vals)
	if sp == nil || sp.pos != pos-ln.Z {
		return Event{}, fmt.Errorf("a fold %d event lines back into a start the span memo does not hold open for it", ln.Z)
	}
	smp := sampleOf(&start.Sys)
	if ln.Y != 0 {
		n := uint64(int64(sp.sample) + ln.Y)
		if err := defs.use(tabSamples, n); err != nil {
			return Event{}, err
		}
		smp = defs.tab.samples.vals[n]
	}
	ev.Timestamp = sp.ts + ln.D + ln.T
	ev.Order = sp.order + 1 + uint64(ln.O)
	ev.Sys.HeapBytes, ev.Sys.Goroutines = smp.heap, smp.goroutines
	return ev, ln.annotate(&ev)
}

// annotate sets what an event line and a fold spell alike.
func (ln *jsonlLine) annotate(ev *Event) error {
	ev.Duration, ev.BatchID, ev.Failed, ev.QueueNanos, ev.WindowNanos = ln.D, ln.BI, ln.F != 0, ln.Q, ln.W
	ev.Sys.PoolRunnable, ev.Sys.PoolBlocked = ln.SR, ln.SB
	var err error
	if ln.PV != nil {
		var vals [numPVarFields]uint64
		err = unmask("pv", ln.PV, vals[:])
		ev.PVars = new(PVarSample)
		for i, p := range ev.PVars.fields() {
			*p = vals[i]
		}
	}
	if ln.C != nil && err == nil {
		ev.Components = new([NumComponents]uint64)
		err = unmask("c", ln.C, ev.Components[:])
	}
	return err
}

// unmask spreads what appendMasked wrote, the presence mask and the
// values of its set bits, over vals, which the caller hands over zeroed.
func unmask(key string, in, vals []uint64) error {
	if len(in) == 0 || in[0]>>len(vals) != 0 || bits.OnesCount64(in[0]) != len(in)-1 {
		return fmt.Errorf("key %q has %d values behind a presence mask for %d fields: %v", key, len(in)-1, len(vals), in)
	}
	for i, next := 0, 1; i < len(vals); i++ {
		if in[0]&(1<<i) != 0 {
			vals[i], next = in[next], next+1
		}
	}
	return nil
}
