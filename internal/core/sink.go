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

// TraceSink consumes trace events as the measurement pipeline emits
// them. The collector's in-memory shard rings are the default buffer; a
// sink attached via Collector.AddTraceSink additionally observes the
// live stream, so exporters (JSONL files, Zipkin/OTLP adapters) consume
// events instead of owning the buffers.
type TraceSink interface {
	// WriteEvent consumes one event. Implementations are called from
	// hot measurement paths and must be safe for concurrent use. The
	// event is borrowed: what ev.PVars and ev.Components point to is
	// valid until WriteEvent returns and overwritten afterwards, so a
	// sink encodes the event on the spot or keeps ev.Clone().
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

// Tracer is the default in-memory TraceSink: events accumulate in its
// bounded buffer for end-of-run snapshots.
var _ TraceSink = (*Tracer)(nil)

// WriteEvent implements TraceSink over the bounded in-memory buffer.
func (t *Tracer) WriteEvent(ev Event) error {
	t.Emit(ev)
	return nil
}

// Flush implements TraceSink; the in-memory buffer needs no flushing.
func (t *Tracer) Flush() error { return nil }

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

// The JSONL trace stream, version 2 (DESIGN.md §10 "Why JSONL stays").
// Every line is one JSON object whose first key says what it is:
//
//	{"symbiosys_trace":2,"t0":<ns>,"keys":{...}}    header, first line
//	{"s":<n>,"v":"<string>"}                        definition of string n
//	{"i":..,"o":..,...,"t":..,"e":..,"p":..,"r":..}  event
//
// An event line omits every zero: a missing key is 0, false or "". t is
// the timestamp less the header's t0; e, p and r number definitions
// above the line (from 1, in first-use order; 0 is the empty string), so
// a line depends on the header and the definitions, never on its
// neighbours. pv and c are the trace dump's masked counters: the
// presence mask, then the nonzero values.
const (
	jsonlVersion = 2
	jsonlHeader  = `{"symbiosys_trace":`
	jsonlDef     = `{"s":`
	// jsonlLegend is the header's "keys" object: the keys of an event
	// line, in the order WriteEvent spells them.
	jsonlLegend = `"i":"request_id","o":"order","k":"kind","b":"breadcrumb","d":"dur_ns","bi":"batch_id","f":"failed",` +
		`"q":"queue_ns","w":"window_ns","sr":"sys.pool_runnable","sb":"sys.pool_blocked","sh":"sys.heap_bytes",` +
		`"sg":"sys.goroutines","pv":"pvars: mask, nonzero values","c":"components: mask, nonzero values",` +
		`"t":"ts_ns - t0","e":"entity, a string number","p":"peer, a string number","r":"rpc, a string number"`
)

// jsonlLine is a line of any of the three kinds as ReadEventsJSONL
// decodes it: the header's and the definition's keys, then the legend's.
type jsonlLine struct {
	Version uint64 `json:"symbiosys_trace"`
	T0      int64  `json:"t0"`
	S       uint64 `json:"s"`
	V       string `json:"v"`

	I  uint64    `json:"i"`
	O  uint64    `json:"o"`
	K  EventKind `json:"k"`
	B  uint64    `json:"b"`
	D  int64     `json:"d"`
	BI uint64    `json:"bi"`
	F  uint64    `json:"f"`
	Q  int64     `json:"q"`
	W  int64     `json:"w"`
	SR int64     `json:"sr"`
	SB int64     `json:"sb"`
	SH uint64    `json:"sh"`
	SG int       `json:"sg"`
	PV []uint64  `json:"pv"`
	C  []uint64  `json:"c"`
	T  int64     `json:"t"`
	E  uint64    `json:"e"`
	P  uint64    `json:"p"`
	R  uint64    `json:"r"`
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

// JSONLTraceSink streams trace events as JSON Lines, in the version 2
// grammar above, to an io.Writer — the on-line export format, ingestible
// with ReadEventsJSONL (and by sym, from a dump directory). An event is
// encoded by hand on its emitter's stack; the sink's mutex covers the string
// table, the four keys that depend on the sink and the copy into the
// buffer.
type JSONLTraceSink struct {
	jsonlWriter
	strs    stringTable
	t0      int64 // the first event's timestamp, as in the header
	started bool  // the header is written
}

// NewJSONLTraceSink wraps w in a streaming JSONL trace sink.
func NewJSONLTraceSink(w io.Writer) *JSONLTraceSink {
	return &JSONLTraceSink{jsonlWriter: jsonlWriter{bw: bufio.NewWriter(w)}}
}

// WriteEvent appends one event line, behind the header if it is the
// sink's first and behind the definitions of the strings it is the
// first to use.
func (s *JSONLTraceSink) WriteEvent(ev Event) error {
	// Room for the longest line: nineteen keys of up to five bytes and
	// 17 + (1+numPVarFields) + (1+NumComponents) numbers of up to twenty
	// digits and a comma. It also fits the buffer's 4 KiB whole.
	var line [1024]byte
	b := append(line[:0], '{')
	b = appendUint(b, `"i":`, ev.RequestID)
	b = appendUint(b, `"o":`, ev.Order)
	b = appendInt(b, `"k":`, int64(ev.Kind))
	b = appendUint(b, `"b":`, ev.Breadcrumb)
	b = appendInt(b, `"d":`, ev.Duration)
	b = appendUint(b, `"bi":`, ev.BatchID)
	if ev.Failed {
		b = append(b, `"f":1,`...)
	}
	b = appendInt(b, `"q":`, ev.QueueNanos)
	b = appendInt(b, `"w":`, ev.WindowNanos)
	b = appendInt(b, `"sr":`, ev.Sys.PoolRunnable)
	b = appendInt(b, `"sb":`, ev.Sys.PoolBlocked)
	b = appendUint(b, `"sh":`, ev.Sys.HeapBytes)
	b = appendInt(b, `"sg":`, int64(ev.Sys.Goroutines))
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
		s.check(fmt.Fprintf(s.bw, "%s%d,\"t0\":%d,\"keys\":{%s}}\n", jsonlHeader, jsonlVersion, s.t0, jsonlLegend))
	}
	b = appendInt(b, `"t":`, ev.Timestamp-s.t0) // wraps; the reader's sum wraps back
	b = appendUint(b, `"e":`, s.ref(0, ev.Entity))
	b = appendUint(b, `"p":`, s.ref(1, ev.Peer))
	b = appendUint(b, `"r":`, s.ref(2, ev.RPCName))
	if b[len(b)-1] == ',' {
		b = b[:len(b)-1]
	}
	b = append(b, '}', '\n')
	// Copy the line into the buffer's own spare room: handed a slice of
	// this stack, bufio would move the line to the heap.
	if s.bw.Available() < len(b) {
		s.bw.Flush() // a failure sticks in bw and comes back from Write
	}
	s.check(s.bw.Write(append(s.bw.AvailableBuffer(), b...)))
	return s.err
}

// ref returns the number of str in the stream's string table, writing
// its definition line on first use. The empty string is 0, undefined.
func (s *JSONLTraceSink) ref(field int, str string) uint64 {
	if str == "" {
		return 0
	}
	n := len(s.strs.strs)
	i := s.strs.intern(field, str) + 1
	if len(s.strs.strs) > n {
		// Definitions are rare: encoding/json owns the string escaping.
		q, _ := json.Marshal(str)
		s.check(fmt.Fprintf(s.bw, "%s%d,\"v\":%s}\n", jsonlDef, i, q))
	}
	return i
}

// ErrTraceStreamVersion is ReadEventsJSONL's refusal of a stream that is
// not in the version 2 grammar: one written before it (no header line)
// or by a later build.
var ErrTraceStreamVersion = errors.New("JSONL trace stream is not version 2")

// ReadEventsJSONL parses a JSONL trace event stream (the JSONLTraceSink
// format) back into the events written, a line at a time. A truncated
// final line — the signature of a streaming sink cut off mid-write
// (SIGINT, crashed process, full disk) — is tolerated rather than fatal:
// the parsed prefix is returned along with the count of discarded
// trailing lines, so one interrupted stream does not abort a whole-run
// analysis. A line that does not parse and is NOT the last of the stream
// still fails, and so does a line anywhere that parses but names a string
// no line above it defines: that is corruption, not truncation. As
// encoding/json does, the reader skips a key it does not know.
func ReadEventsJSONL(r io.Reader) (events []Event, truncated int, err error) {
	fail := func(line int, err error) ([]Event, int, error) {
		return nil, 0, fmt.Errorf("core: parse JSONL trace stream at line %d: %w", line, err)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 16<<20) // a definition runs as long as its string
	var (
		t0      int64    // the header's base timestamp
		strs    []string // the definitions so far; strs[0] is "", nil before the header
		cut     error    // why line cutLine did not parse, held until a line follows it
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
		if !header && strs == nil {
			return fail(line, fmt.Errorf("%w: no header line, as in version 1", ErrTraceStreamVersion))
		}
		ln = jsonlLine{}
		if cut, cutLine = json.Unmarshal(raw, &ln), line; cut != nil {
			continue
		}
		switch {
		case header && ln.Version != jsonlVersion:
			return fail(line, fmt.Errorf("%w: it says version %d", ErrTraceStreamVersion, ln.Version))
		case header && strs != nil:
			return fail(line, errors.New("a second header line"))
		case header:
			t0, strs = ln.T0, []string{""}
		case bytes.HasPrefix(raw, []byte(jsonlDef)):
			if ln.S != uint64(len(strs)) {
				return fail(line, fmt.Errorf("definition of string %d where %d is next", ln.S, len(strs)))
			}
			strs = append(strs, ln.V)
		default:
			ev, err := ln.event(t0, strs)
			if err != nil {
				return fail(line, err)
			}
			events = append(events, ev)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("core: read JSONL trace stream: %w", err)
	}
	if cut != nil {
		truncated = 1
	}
	return events, truncated, nil
}

// event is the Event an event line spells under the header's t0 and the
// definitions above the line.
func (ln *jsonlLine) event(t0 int64, strs []string) (Event, error) {
	if n := uint64(len(strs)); ln.E >= n || ln.P >= n || ln.R >= n {
		return Event{}, fmt.Errorf("strings %d, %d, %d used with %d defined", ln.E, ln.P, ln.R, n-1)
	}
	ev := Event{RequestID: ln.I, Order: ln.O, Kind: ln.K, Timestamp: t0 + ln.T,
		Entity: strs[ln.E], Peer: strs[ln.P], RPCName: strs[ln.R], Breadcrumb: ln.B, Duration: ln.D,
		BatchID: ln.BI, Failed: ln.F != 0, QueueNanos: ln.Q, WindowNanos: ln.W,
		Sys: SysSample{PoolRunnable: ln.SR, PoolBlocked: ln.SB, HeapBytes: ln.SH, Goroutines: ln.SG}}
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
	return ev, err
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
