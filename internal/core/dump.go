package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"time"
)

// ProfileDump is the serialized per-process callpath profile, the unit
// the SYMBIOSYS profile summary script ingests (one per process in the
// paper; the analysis package merges them globally).
type ProfileDump struct {
	Entity  string            `json:"entity"`
	PID     uint32            `json:"pid"`
	Stage   string            `json:"stage"`
	Started time.Time         `json:"started"`
	Names   map[uint16]string `json:"names"`
	// TraceDropped surfaces silent trace-buffer truncation alongside the
	// profile so offline analysis can flag incomplete traces.
	TraceDropped uint64 `json:"trace_dropped,omitempty"`
	// PVars carries the process's library-global performance-variable
	// totals at dump time (requests shed, deadline expiries, breaker
	// trips, retries, ...), when the owning layer installed a snapshot
	// provider (Profiler.SetPVarSnapshot).
	PVars  map[string]uint64 `json:"pvars,omitempty"`
	Origin []DumpEntry       `json:"origin"`
	Target []DumpEntry       `json:"target"`
}

// DumpEntry is one (callpath, peer) row of a profile dump.
type DumpEntry struct {
	BC    uint64    `json:"breadcrumb"`
	Peer  string    `json:"peer"`
	Stats CallStats `json:"stats"`
}

func (e *DumpEntry) less(o *DumpEntry) bool {
	if e.BC != o.BC {
		return e.BC < o.BC
	}
	return e.Peer < o.Peer
}

// WriteProfile serializes a dump as JSON.
func WriteProfile(w io.Writer, d *ProfileDump) error {
	enc := json.NewEncoder(w)
	return enc.Encode(d)
}

// ReadProfile parses one JSON profile dump.
func ReadProfile(r io.Reader) (*ProfileDump, error) {
	var d ProfileDump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("core: parse profile dump: %w", err)
	}
	return &d, nil
}

// TraceDump is one process's trace as a span table: each row pairs a
// start event (t1, t5) with the end (t14, t8) that closes it, or holds
// an event with no partner, and the fields most events leave zero are
// kept sparse in one value column. ReadTrace decodes a dump file into
// the table, NewTraceDump makes the dump of events, and WriteTrace
// writes the dump's bytes (tracedump.go). Nothing in a dump changes once
// it is made, so several goroutines may read one.
type TraceDump struct {
	dropped uint64
	enc     []byte // the dump's bytes, the table's source
	rows    []SpanRow
	// vals is the value column: the tables the rows number into — per
	// string its offsets in strs, three words per shape, two per
	// sample — then the halves' nonzero values.
	vals           []uint64
	strs           string
	nstrs, nshapes int
}

// The halves of a span row.
const (
	SpanStart = 0
	SpanEnd   = 1
)

// SpanRow is one row of a dump's span table: a start and the end that
// closes it — the oldest start still open, in Lamport order, of the
// same request, partner kind, breadcrumb and entity (the pairing of the
// paper's trace stitching) — or one event with no partner, an end in
// its SpanEnd half and any other event in its SpanStart half. The two
// halves of a span are paired within one dump: the process that starts
// a span ends it. A half keeps its event's timestamp, Lamport order and
// index in the dump below; its kind, breadcrumb and strings as a shape
// number, its heap and goroutine counts as a sample number, and its
// other fields in the value column, from vals on, one word per set
// value bit of flags.
type SpanRow struct {
	RequestID uint64
	Timestamp [2]int64
	Order     [2]uint64
	Pos       [2]uint32
	shape     [2]uint32
	sample    [2]uint32
	vals      [2]uint32
	flags     [2]uint32 // zero for an absent half
}

// Bits of a half's flags. The first hValues say which values the half
// has in the value column, in bit order and only when nonzero: the
// duration, queue time, pool counts, PVAR fields, components, batch ID
// and window of its event, the order a record spells them in.
const (
	hDuration = iota
	hQueue
	hPoolRunnable
	hPoolBlocked
	hPVar0
	hComp0   = hPVar0 + numPVarFields
	hBatchID = hComp0 + int(NumComponents)
	hWindow  = hBatchID + 1
	hValues  = hWindow + 1

	hPVars   = hValues     // it carries a PVAR sample, perhaps all zero
	hComps   = hValues + 1 // and a component array
	hFailed  = hValues + 2
	hPartner = hValues + 3 // its kind is its shape's partner: a folded end
	hPresent = hValues + 4
)

var _ [31 - hPresent]struct{} // the flags fit a uint32

// Entity returns the name of the process the dump is of.
func (d *TraceDump) Entity() string { return d.str(0) }

// Dropped returns how many events the process's trace buffer dropped.
func (d *TraceDump) Dropped() uint64 { return d.dropped }

// Rows returns the dump's span table, in the order of the rows' first
// events in the dump, but that the rows of one request are in the
// Lamport order of their ends (of their starts, for rows without). The
// rows are the dump's own, not to be changed.
func (d *TraceDump) Rows() []SpanRow { return d.rows }

// Has reports whether half h of the row holds an event.
func (r *SpanRow) Has(h int) bool { return r.flags[h] != 0 }

func (d *TraceDump) str(i uint32) string {
	w := d.vals[i]
	return d.strs[w>>32 : uint32(w)]
}

func (d *TraceDump) sample(i uint32) sample {
	w := d.vals[d.nstrs+3*d.nshapes+2*int(i):]
	return sample{w[0], int(int64(w[1]))}
}

func (d *TraceDump) shape(i uint32) shape {
	w := d.vals[d.nstrs+3*int(i):]
	return shape{bc: w[0], kind: EventKind(uint8(w[1])), strs: [3]uint32{uint32(w[1] >> 32), uint32(w[2]), uint32(w[2] >> 32)}}
}

// Kind returns the kind of the event half h of r holds.
func (d *TraceDump) Kind(r *SpanRow, h int) EventKind {
	return halfKind(EventKind(uint8(d.vals[d.nstrs+3*int(r.shape[h])+1])), r.flags[h])
}

// Span is one call interval of a distributed request, as the analysis
// plane reads it: a row of a dump's span table that pairs a start with
// its end.
type Span struct {
	RequestID  uint64
	Breadcrumb Breadcrumb
	RPCName    string
	Entity     string
	Kind       string // "CLIENT" (origin view) or "SERVER" (target view)
	StartNanos int64
	DurNanos   int64
	StartOrder uint64
	// Failed marks a span closed by an error terminal event (canceled
	// or failed origin attempt, error response / handler panic on the
	// target) — closed, but not a successful execution.
	Failed bool
	// QueueNanos is the handler-pool wait (t4→t5) carried on SERVER
	// spans; WindowNanos the coalescer window wait carried on batched
	// CLIENT spans. BatchID groups members of one vectored forward.
	QueueNanos  int64
	WindowNanos int64
	BatchID     uint64
	Sys         SysSample
	PVars       *PVarSample
}

// Span sets *s to the span of r, which holds both halves. The end's
// PVAR sample, if it carries one, is copied into *pv, which s.PVars then
// points to.
func (d *TraceDump) Span(r *SpanRow, s *Span, pv *PVarSample) {
	sh, sm := d.shape(r.shape[SpanEnd]), d.sample(r.sample[SpanEnd])
	end := r.flags[SpanEnd]
	v := valuesOf(end, d.vals[r.vals[SpanEnd]:], pv, nil)
	kind := "SERVER"
	if halfKind(sh.kind, end) == EvOriginEnd {
		kind = "CLIENT"
	}
	if v.dur == 0 {
		v.dur = r.Timestamp[SpanEnd] - r.Timestamp[SpanStart]
	}
	*s = Span{
		RequestID: r.RequestID, Breadcrumb: Breadcrumb(sh.bc), RPCName: d.str(sh.strs[2]), Entity: d.str(sh.strs[0]),
		Kind: kind, StartNanos: r.Timestamp[SpanStart], DurNanos: v.dur, StartOrder: r.Order[SpanStart], Failed: end&(1<<hFailed) != 0,
		// Queue wait rides the start (t5) event, window wait and batch
		// identity the end (t14) event.
		QueueNanos:  valuesOf(r.flags[SpanStart], d.vals[r.vals[SpanStart]:], nil, nil).queue,
		WindowNanos: v.window, BatchID: v.batch,
		Sys:   SysSample{PoolRunnable: v.runnable, PoolBlocked: v.blocked, HeapBytes: sm.heap, Goroutines: sm.goroutines},
		PVars: v.pvars,
	}
}

func halfKind(k EventKind, flags uint32) EventKind {
	if flags&(1<<hPartner) != 0 {
		return spanPartner(k)
	}
	return k
}

// Event sets *ev to the event half h of r holds. Its PVAR sample and
// components are copied into *pv and *comps, which ev then points to;
// with either nil the event carries none.
func (d *TraceDump) Event(r *SpanRow, h int, ev *Event, pv *PVarSample, comps *[NumComponents]uint64) {
	sh := d.shape(r.shape[h])
	strs := [3]string{d.str(sh.strs[0]), d.str(sh.strs[1]), d.str(sh.strs[2])}
	setEvent(ev, r.RequestID, r.Timestamp[h], r.Order[h], &sh, &strs, d.sample(r.sample[h]), r.flags[h], d.vals[r.vals[h]:], pv, comps)
}

// setEvent sets *ev to the event of a half: its request ID, timestamp
// and order; its shape, the shape's strings and its sample; its flags
// and the values they name, in column order.
func setEvent(ev *Event, req uint64, ts int64, order uint64, sh *shape, strs *[3]string, sm sample, flags uint32, vals []uint64,
	pv *PVarSample, comps *[NumComponents]uint64) {
	v := valuesOf(flags, vals, pv, comps)
	*ev = Event{
		RequestID: req, Order: order, Kind: halfKind(sh.kind, flags), Failed: flags&(1<<hFailed) != 0, Timestamp: ts,
		Entity: strs[0], Peer: strs[1], RPCName: strs[2], Breadcrumb: sh.bc,
		Duration: v.dur, BatchID: v.batch, QueueNanos: v.queue, WindowNanos: v.window,
		Sys:   SysSample{PoolRunnable: v.runnable, PoolBlocked: v.blocked, HeapBytes: sm.heap, Goroutines: sm.goroutines},
		PVars: v.pvars, Components: v.comps,
	}
}

// halfValues are the values of a half's flags: its scalar fields, and
// its PVAR sample and components where they were copied to.
type halfValues struct {
	dur, queue, runnable, blocked, window int64
	batch                                 uint64
	pvars                                 *PVarSample
	comps                                 *[NumComponents]uint64
}

// valuesOf reads the values a half's flags name, in column order, its
// PVAR sample into *pv and its components into *comps; with either nil,
// or not carried, it has none.
func valuesOf(flags uint32, vals []uint64, pv *PVarSample, comps *[NumComponents]uint64) (h halfValues) {
	const pvarBits, compBits = 1<<hComp0 - 1<<hPVar0, 1<<hBatchID - 1<<hComp0
	m := flags & (1<<hValues - 1) &^ (pvarBits | compBits) // the values read
	var pvars [numPVarFields]*uint64                       // where the PVAR fields go
	if flags&(1<<hPVars) != 0 && pv != nil {
		*pv = PVarSample{}
		pvars, h.pvars, m = pv.fields(), pv, m|flags&pvarBits
	}
	if flags&(1<<hComps) != 0 && comps != nil {
		*comps = [NumComponents]uint64{}
		h.comps, m = comps, m|flags&compBits
	}
	for ; m != 0; m &= m - 1 {
		b := bits.TrailingZeros32(m)
		switch v := vals[bits.OnesCount32(flags&(1<<b-1))]; {
		case b == hDuration:
			h.dur = int64(v)
		case b == hQueue:
			h.queue = int64(v)
		case b == hPoolRunnable:
			h.runnable = int64(v)
		case b == hPoolBlocked:
			h.blocked = int64(v)
		case b < hComp0:
			*pvars[b-hPVar0] = v
		case b < hBatchID:
			h.comps[b-hComp0] = v
		case b == hBatchID:
			h.batch = v
		default:
			h.window = int64(v)
		}
	}
	return h
}

// NewTraceDump makes the dump of a process's events, in their order: it
// records them as a Profiler shard does, the entity numbered first, and
// lays the recorder's tables and records out behind the header.
func NewTraceDump(entity string, pid uint32, dropped uint64, evs []Event) *TraceDump {
	t := traceBuf{cap: len(evs)}
	t.strs.number(entity)
	for i := range evs {
		t.emit(&evs[i], evs[i].PVars, evs[i].Components)
	}
	d, err := decodeTraceDump(t.dump(pid, dropped))
	if err != nil {
		panic("core: the trace dump codec refuses its own writing: " + err.Error())
	}
	return d
}

// DumpTrace captures a profiler's merged trace buffers for offline
// analysis; events come out ordered by timestamp then Lamport order.
func (p *Profiler) DumpTrace() *TraceDump {
	return NewTraceDump(p.entity, p.pid, p.TraceDropped(), p.TraceEvents())
}
