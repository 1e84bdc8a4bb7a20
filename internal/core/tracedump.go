package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
)

// The trace dump format, version 3 (DESIGN.md §10 "Trace dump format").
// All integers are minimal-length varints: "uv" is an unsigned LEB128
// varint, "zz" a zigzag-coded signed one.
//
//	"SYTD" version:u8
//	pid:uv dropped:uv
//	nstrings:uv { len:uv bytes }*         strings[0] is the dump's entity
//	nshapes:uv { kind:uv breadcrumb:uv entity:uv peer:uv rpc:uv }*
//	nsamples:uv { heap_bytes:uv goroutines:zz }*
//	nevents:uv npvars:uv ncomponents:uv
//	{ event | fold }*
//
//	event:
//	  flags:uv                            evFlag bits, evFold clear
//	  request_id:uv order:uv
//	  timestamp:zz                        delta against the previous event
//	  shape:uv sample:uv                  table indexes
//	  [duration:zz] annotations
//
//	fold:                                 an end, folded into its start
//	  flags:uv                            evFold set
//	  back:uv                             how many events back its start is
//	  duration:zz
//	  [ts_residual:zz]                    timestamp - (start's + duration)
//	  [order_residual:zz]                 order - (start's + 1)
//	  [sample:uv]                         only if not the start's
//	  annotations
//
//	annotations:
//	  [queue_ns:zz] [pool_runnable:zz] [pool_blocked:zz]
//	  [pvars: mask:uv { field:uv }*]      one value per set mask bit
//	  [components: mask:uv { ns:uv }*]
//	  [batch_id:uv] [window_ns:zz]
//
// A shape is an event's kind (as an unsigned byte), breadcrumb and the
// string-table indexes of its entity, peer and RPC name; a sample is the
// heap size and goroutine count of its SysSample. A bracketed field is
// present when its flag bit is set, and is set only for a nonzero value
// (a non-nil pointer, for pvars and components; a sample other than the
// start's, for a fold's). Each table lists its entries in the order they
// are first used — samples and shapes by the events, strings by the
// shapes — and holds no entry twice and none unused.
//
// A fold is an end event (t14, t8) whose start (t1, t5) the span memo
// (spanMemo) holds open: the same request ID, breadcrumb, entity, peer
// and RPC, among the last memoSpans starts. Its request ID, breadcrumb,
// strings and, unless it says otherwise, its sample are the start's, and
// its kind is the start's partner. Writer and reader replay the memo over
// the events in order, and every end the memo folds is a fold and every
// other event a full record. Together with the minimal varints this makes
// the encoding of a dump unique: ReadTrace rejects every other spelling,
// so what it accepts re-encodes to the same bytes.
//
// The version byte changes whenever a reader of the old layout would
// misread the new one: a field added to Event, SysSample or PVarSample,
// a change of NumComponents, a new flag bit, a reordering, a change of
// the fold rule.
const (
	traceMagic   = "SYTD"
	traceVersion = 3
)

// Event flag bits. The seven a fold usually sets come first, so that the
// flags word of a fold or a t1 is one byte (a t5's queue time takes a
// second).
const (
	evFold = 1 << iota
	evTSResidual
	evOrderResidual
	evPoolRunnable
	evPoolBlocked
	evPVars
	evComponents
	evQueue
	evDuration
	evFailed
	evBatchID
	evWindow
	evSample

	evFlagBits = iota

	// foldOnly and fullOnly are the bits only one kind of record sets.
	foldOnly = evTSResidual | evOrderResidual | evSample
	fullOnly = evDuration
)

// The tables of a dump, as traceReader.used counts them.
const (
	tabStrings = iota
	tabShapes
	tabSamples
	numTables
)

var tableNames = [numTables]string{"string", "shape", "sample"}

// numPVarFields is the number of PVarSample fields; their mask bits
// follow declaration order.
const numPVarFields = 11

// fields lists the sample's counters in mask-bit order.
func (p *PVarSample) fields() [numPVarFields]*uint64 {
	return [numPVarFields]*uint64{
		&p.OFIEventsRead, &p.CompletionQueue, &p.PostedHandles,
		&p.InputSerNanos, &p.InputDeserNanos, &p.OutputSerNanos,
		&p.RDMANanos, &p.OriginCBNanos, &p.NetworkPending,
		&p.BulkBytesMoved, &p.RPCsInvokedTotal,
	}
}

// minEventBytes is the shortest encoded event: flags, two IDs, the
// timestamp delta and two table indexes, one byte each; a fold takes at
// least three: flags, back-reference and duration. Each fold closes a
// start of its own, so n records take at least n·minPairBytes/2 bytes. A
// shape takes at least five bytes and a sample two.
const (
	minEventBytes  = 6
	minFoldBytes   = 3
	minPairBytes   = minEventBytes + minFoldBytes
	minShapeBytes  = 5
	minSampleBytes = 2
)

// WriteTrace serializes a trace dump in the binary trace dump format,
// with one Write call.
func WriteTrace(w io.Writer, d *TraceDump) error {
	_, err := w.Write(encodeTraceDump(d))
	return err
}

// numberDump is the first pass of encoding a dump of evs: it defines in
// t each sample and shape once, in the order the events first use them
// (and so each string in the order the shapes first use it), and counts
// the annotations so the reader can size its storage up front. A fold
// uses no shape, and a sample only when its own differs from its
// start's. It leaves t's span memo empty for the second pass.
func (t *traceTables) numberDump(evs []Event) (npvars, ncomps uint64) {
	for i := range evs {
		ev := &evs[i]
		if sp := t.spans.close(ev, t.strs.vals, t.shapes.vals); sp == nil {
			t.spans.open(ev, uint64(i), t.shapeOf(ev), t.internSample(sampleOf(&ev.Sys)))
		} else if smp := sampleOf(&ev.Sys); smp != t.samples.vals[sp.sample] {
			t.internSample(smp)
		}
		if ev.PVars != nil {
			npvars++
		}
		if ev.Components != nil {
			ncomps++
		}
	}
	t.spans = spanMemo{}
	return npvars, ncomps
}

func encodeTraceDump(d *TraceDump) []byte {
	var tab traceTables
	tab.strs.number(d.Entity)
	npvars, ncomps := tab.numberDump(d.Events)

	strs, shapes, samples := tab.strs.vals, tab.shapes.vals, tab.samples.vals
	b := make([]byte, 0, 64+16*(len(strs)+len(shapes))+32*len(d.Events))
	b = append(b, traceMagic...)
	b = append(b, traceVersion)
	b = binary.AppendUvarint(b, uint64(d.PID))
	b = binary.AppendUvarint(b, d.Dropped)
	b = binary.AppendUvarint(b, uint64(len(strs)))
	for _, s := range strs {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	b = binary.AppendUvarint(b, uint64(len(shapes)))
	for _, sh := range shapes {
		b = binary.AppendUvarint(b, uint64(uint8(sh.kind)))
		b = binary.AppendUvarint(b, sh.bc)
		for _, s := range sh.strs {
			b = binary.AppendUvarint(b, uint64(s))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(samples)))
	for _, s := range samples {
		b = binary.AppendUvarint(b, s.heap)
		b = binary.AppendVarint(b, int64(s.goroutines))
	}
	b = binary.AppendUvarint(b, uint64(len(d.Events)))
	b = binary.AppendUvarint(b, npvars)
	b = binary.AppendUvarint(b, ncomps)

	// Second pass: the same memo over the same events folds the same ends.
	var prev int64
	var rec eventRecord
	for i := range d.Events {
		ev := &d.Events[i]
		var n int
		if sp := tab.spans.close(ev, strs, shapes); sp == nil {
			shape, sample := tab.shapeOf(ev), tab.internSample(sampleOf(&ev.Sys))
			tab.spans.open(ev, uint64(i), shape, sample)
			n = rec.full(ev, ev.PVars, ev.Components, prev, shape, sample)
		} else {
			sample := tab.internSample(sampleOf(&ev.Sys))
			n = rec.fold(ev, ev.PVars, ev.Components, uint64(i)-sp.pos, sp, sample, sample != uint64(sp.sample))
		}
		b = append(b, rec[:n]...)
		prev = ev.Timestamp
	}
	return b
}

// eventRecord is room for the longest event record: the flags word, two
// IDs, the timestamp delta, two table indexes, six optional fields and
// the two masked annotation blocks, every varint at its full ten bytes
// (a fold is shorter: its back-reference, duration, two residuals and
// sample stand for the IDs, delta and indexes). Records are built in one
// (on the stack) and then appended to where they are kept, so the
// encoder writes by index and never grows anything.
type eventRecord [(1+2+1+2+6)*binary.MaxVarintLen64 +
	(2 + numPVarFields*binary.MaxVarintLen64) + (2 + int(NumComponents)*binary.MaxVarintLen64)]byte

// uv writes v as a varint at r[n:] and returns the offset after it.
func (r *eventRecord) uv(n int, v uint64) int {
	for v >= 0x80 {
		r[n] = byte(v) | 0x80
		v >>= 7
		n++
	}
	r[n] = byte(v)
	return n + 1
}

// zz is uv for a signed value, zigzag-coded.
func (r *eventRecord) zz(n int, v int64) int {
	return r.uv(n, uint64(v<<1)^uint64(v>>63))
}

// masked writes counters as a presence mask followed by the nonzero
// ones.
func (r *eventRecord) masked(n int, vals []uint64) int {
	var mask uint64
	for i, v := range vals {
		if v != 0 {
			mask |= 1 << i
		}
	}
	n = r.uv(n, mask)
	for _, v := range vals {
		if v != 0 {
			n = r.uv(n, v)
		}
	}
	return n
}

// annotationFlags returns the flag bits of what a record of ev carries
// in its annotations: pv and comps are the event's annotations, passed
// beside it because the recording path holds them apart from ev
// (ev.PVars and ev.Components are not read).
func annotationFlags(ev *Event, pv *PVarSample, comps *[NumComponents]uint64) (flags uint64) {
	if ev.QueueNanos != 0 {
		flags |= evQueue
	}
	if ev.Sys.PoolRunnable != 0 {
		flags |= evPoolRunnable
	}
	if ev.Sys.PoolBlocked != 0 {
		flags |= evPoolBlocked
	}
	if pv != nil {
		flags |= evPVars
	}
	if comps != nil {
		flags |= evComponents
	}
	if ev.Failed {
		flags |= evFailed
	}
	if ev.BatchID != 0 {
		flags |= evBatchID
	}
	if ev.WindowNanos != 0 {
		flags |= evWindow
	}
	return flags
}

// full writes ev's full record (the "event" production above) into r and
// returns its length. It and fold are the one event encoder: a dump file
// and a Profiler shard's in-memory chunks hold the same bytes per event.
// prev is the timestamp the delta is taken against, and shape and
// sample are the indexes of ev's shape and sample in whatever tables the
// record's reader will use.
func (r *eventRecord) full(ev *Event, pv *PVarSample, comps *[NumComponents]uint64, prev int64, shape, sample uint64) int {
	flags := annotationFlags(ev, pv, comps)
	if ev.Duration != 0 {
		flags |= evDuration
	}
	n := r.uv(0, flags)
	n = r.uv(n, ev.RequestID)
	n = r.uv(n, ev.Order)
	n = r.zz(n, ev.Timestamp-prev) // wraps; the reader's sum wraps back
	n = r.uv(n, shape)
	n = r.uv(n, sample)
	if flags&evDuration != 0 {
		n = r.zz(n, ev.Duration)
	}
	return r.annotations(n, flags, ev, pv, comps)
}

// fold writes ev as the fold of the start sp, back events before it (the
// "fold" production above), and returns its length. sample is the index
// of ev's sample, written if differs says it is not the start's.
func (r *eventRecord) fold(ev *Event, pv *PVarSample, comps *[NumComponents]uint64, back uint64, sp *openSpan, sample uint64, differs bool) int {
	tsRes := ev.Timestamp - (sp.ts + ev.Duration) // wraps, as the reader's sum does
	orderRes := ev.Order - (sp.order + 1)
	flags := annotationFlags(ev, pv, comps) | evFold
	if tsRes != 0 {
		flags |= evTSResidual
	}
	if orderRes != 0 {
		flags |= evOrderResidual
	}
	if differs {
		flags |= evSample
	}
	n := r.uv(0, flags)
	n = r.uv(n, back)
	n = r.zz(n, ev.Duration)
	if tsRes != 0 {
		n = r.zz(n, tsRes)
	}
	if orderRes != 0 {
		n = r.zz(n, int64(orderRes))
	}
	if differs {
		n = r.uv(n, sample)
	}
	return r.annotations(n, flags, ev, pv, comps)
}

// annotations writes the fields of a record after its head, at r[n:],
// and returns the offset after them.
func (r *eventRecord) annotations(n int, flags uint64, ev *Event, pv *PVarSample, comps *[NumComponents]uint64) int {
	if flags&evQueue != 0 {
		n = r.zz(n, ev.QueueNanos)
	}
	if flags&evPoolRunnable != 0 {
		n = r.zz(n, ev.Sys.PoolRunnable)
	}
	if flags&evPoolBlocked != 0 {
		n = r.zz(n, ev.Sys.PoolBlocked)
	}
	if pv != nil {
		var vals [numPVarFields]uint64
		for i, p := range pv.fields() {
			vals[i] = *p
		}
		n = r.masked(n, vals[:])
	}
	if comps != nil {
		n = r.masked(n, comps[:])
	}
	if flags&evBatchID != 0 {
		n = r.uv(n, ev.BatchID)
	}
	if flags&evWindow != 0 {
		n = r.zz(n, ev.WindowNanos)
	}
	return n
}

// ReadTrace parses one trace dump written by WriteTrace. The input is
// not trusted: malformed bytes are an error, never a panic, and no
// count in them is believed beyond what the bytes that follow it could
// encode. One dump costs a fixed number of allocations however many
// events it holds: its bytes, its tables (the strings share one backing
// string), and one array each of events, PVAR samples and component
// breakdowns that the events' PVars and Components point into.
func ReadTrace(r io.Reader) (*TraceDump, error) {
	data, err := readAllSized(r)
	if err != nil {
		return nil, fmt.Errorf("core: read trace dump: %w", err)
	}
	d, _, err := decodeTraceDump(data)
	if err != nil {
		return nil, fmt.Errorf("core: parse trace dump: %w", err)
	}
	return d, nil
}

// readAllSized is io.ReadAll with the buffer sized up front when the
// reader can tell how much it holds (a file, a bytes.Reader or Buffer),
// so that reading a dump is one allocation whatever its size.
func readAllSized(r io.Reader) ([]byte, error) {
	var size int64
	switch s := r.(type) {
	case interface{ Len() int }:
		size = int64(s.Len())
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := s.Stat(); err == nil {
			size = fi.Size()
		}
	}
	if size < 0 || size > math.MaxInt32 {
		size = 0 // a hint only; fall back to growing
	}
	buf := make([]byte, 0, size+1) // one spare byte for the read that finds EOF
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// traceReader is a cursor over a dump's bytes whose first error sticks:
// after it every read returns zero, so callers check once per section.
type traceReader struct {
	b   []byte
	off int
	err error

	// Event decoding state: the timestamp the next delta adds to, the
	// storage the next PVAR sample and component array go into, and how
	// many records so far were folds.
	ts    int64
	pvars []PVarSample
	comps [][NumComponents]uint64
	folds int
}

// recordTables are the tables event records index, how many of each
// one's entries have been used so far (by the shapes, for strings; by
// the events, for the others), and the span memo the records replay.
// They are kept apart from the traceReader, whose error escapes: escape
// analysis does not tell a struct's fields apart, and a dump's tables
// may live on its decoder's stack.
type recordTables struct {
	strs    []string
	shapes  []shape
	samples []sample
	used    [numTables]uint64
	spans   spanMemo
}

func (r *traceReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.off = len(r.b)
}

func (r *traceReader) remaining() uint64 { return uint64(len(r.b) - r.off) }

func (r *traceReader) uv() uint64 {
	if r.off < len(r.b) && r.b[r.off] < 0x80 {
		r.off++
		return uint64(r.b[r.off-1])
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("truncated or overlong varint at offset %d", r.off)
		return 0
	}
	if r.b[r.off+n-1] == 0 {
		r.fail("non-minimal varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *traceReader) zz() int64 {
	v := r.uv()
	return int64(v>>1) ^ -int64(v&1)
}

// nonzero checks an optional field, which is written only when nonzero.
func (r *traceReader) nonzero(v uint64) uint64 {
	if v == 0 {
		r.fail("optional field present but zero before offset %d", r.off)
	}
	return v
}

// masked reads the counters appendMasked wrote into vals, which the
// caller hands over zeroed.
func (r *traceReader) masked(vals []uint64) {
	mask := r.uv()
	if mask>>len(vals) != 0 {
		r.fail("presence mask %#x wider than %d fields", mask, len(vals))
		return
	}
	for i := range vals {
		if mask&(1<<i) != 0 {
			vals[i] = r.nonzero(r.uv())
		}
	}
}

// ref reads an index into one of t's tables, of size entries. The
// writer numbers each table's entries in the order they are first used,
// so an index may be at most one past the highest seen so far.
func (r *traceReader) ref(t *recordTables, table int, size int) uint64 {
	i := r.uv()
	if used := t.used[table]; i > used || i >= uint64(size) {
		r.fail("%s index %d out of first-use order (%d of %d used)", tableNames[table], i, used, size)
		return 0
	}
	if i == t.used[table] {
		t.used[table]++
	}
	return i
}

// event reads one record (what eventRecord.full or fold wrote) into
// *ev, which the caller hands over zeroed. prior are the events of the
// record's sequence before it, which a fold refers back into. A full
// record's shape and sample expand from t; the annotations point at the
// next free entries of r.pvars and r.comps.
func (r *traceReader) event(ev *Event, t *recordTables, prior []Event) {
	flags := r.uv()
	pos := uint64(len(prior))
	switch {
	case flags>>evFlagBits != 0:
		r.fail("unknown event flag bits %#x", flags)
	case flags&evFold != 0 && flags&fullOnly != 0:
		r.fail("fold with flag bits %#x of a full record", flags&fullOnly)
	case flags&evFold == 0 && flags&foldOnly != 0:
		r.fail("full record with flag bits %#x of a fold", flags&foldOnly)
	case flags&evFold != 0:
		r.fold(ev, t, flags, prior)
	default:
		ev.RequestID = r.uv()
		ev.Order = r.uv()
		r.ts += r.zz()
		ev.Timestamp = r.ts
		shi, smi := r.ref(t, tabShapes, len(t.shapes)), r.ref(t, tabSamples, len(t.samples))
		if r.err != nil {
			return
		}
		sh, sm := &t.shapes[shi], &t.samples[smi]
		ev.Kind, ev.Breadcrumb = sh.kind, sh.bc
		ev.Entity, ev.Peer, ev.RPCName = t.strs[sh.strs[0]], t.strs[sh.strs[1]], t.strs[sh.strs[2]]
		ev.Sys.HeapBytes, ev.Sys.Goroutines = sm.heap, sm.goroutines
		if sp := t.spans.close(ev, t.strs, t.shapes); sp != nil {
			r.fail("a full record of the end that folds into event %d", sp.pos)
		}
		t.spans.open(ev, pos, shi, smi)
		if flags&evDuration != 0 {
			ev.Duration = int64(r.nonzero(uint64(r.zz())))
		}
	}
	if r.err != nil {
		return
	}
	ev.Failed = flags&evFailed != 0
	if flags&evQueue != 0 {
		ev.QueueNanos = int64(r.nonzero(uint64(r.zz())))
	}
	if flags&evPoolRunnable != 0 {
		ev.Sys.PoolRunnable = int64(r.nonzero(uint64(r.zz())))
	}
	if flags&evPoolBlocked != 0 {
		ev.Sys.PoolBlocked = int64(r.nonzero(uint64(r.zz())))
	}
	if flags&evPVars != 0 {
		if len(r.pvars) == 0 {
			r.fail("more pvar samples than declared")
			return
		}
		ev.PVars, r.pvars = &r.pvars[0], r.pvars[1:]
		var vals [numPVarFields]uint64
		r.masked(vals[:])
		for i, p := range ev.PVars.fields() {
			*p = vals[i]
		}
	}
	if flags&evComponents != 0 {
		if len(r.comps) == 0 {
			r.fail("more component arrays than declared")
			return
		}
		ev.Components, r.comps = &r.comps[0], r.comps[1:]
		r.masked(ev.Components[:])
	}
	if flags&evBatchID != 0 {
		ev.BatchID = r.nonzero(r.uv())
	}
	if flags&evWindow != 0 {
		ev.WindowNanos = int64(r.nonzero(uint64(r.zz())))
	}
}

// fold reads the head of a fold: the start it refers back to, in prior,
// must be the one the memo closes for the end it spells.
func (r *traceReader) fold(ev *Event, t *recordTables, flags uint64, prior []Event) {
	pos, back := uint64(len(prior)), r.uv()
	if r.err != nil {
		return
	}
	if back == 0 || back > pos {
		r.fail("fold %d events back from event %d", back, pos)
		return
	}
	start := &prior[pos-back]
	if !isSpanStart(start.Kind) {
		r.fail("fold into event %d, of kind %v", pos-back, start.Kind)
		return
	}
	ev.RequestID, ev.Kind, ev.Breadcrumb = start.RequestID, spanPartner(start.Kind), start.Breadcrumb
	ev.Entity, ev.Peer, ev.RPCName = start.Entity, start.Peer, start.RPCName
	sp := t.spans.close(ev, t.strs, t.shapes)
	if sp == nil || sp.pos != pos-back {
		r.fail("fold into event %d, which is not its span's open start in the memo", pos-back)
		return
	}
	r.folds++
	ev.Duration = r.zz()
	var tsRes, orderRes int64
	if flags&evTSResidual != 0 {
		tsRes = int64(r.nonzero(uint64(r.zz())))
	}
	if flags&evOrderResidual != 0 {
		orderRes = int64(r.nonzero(uint64(r.zz())))
	}
	ev.Timestamp = sp.ts + ev.Duration + tsRes
	ev.Order = sp.order + 1 + uint64(orderRes)
	r.ts = ev.Timestamp
	smp := sampleOf(&start.Sys)
	if flags&evSample != 0 {
		i := r.ref(t, tabSamples, len(t.samples))
		if r.err != nil {
			return
		}
		if t.samples[i] == smp {
			r.fail("fold repeats its start's sample")
		}
		smp = t.samples[i]
	}
	ev.Sys.HeapBytes, ev.Sys.Goroutines = smp.heap, smp.goroutines
}

// count reads the size of a table, believing it only as far as the bytes
// left could hold that many entries of at least size bytes each.
func (r *traceReader) count(what string, size uint64) uint64 {
	n := r.uv()
	if n > r.remaining()/size {
		r.fail("%d %s in %d bytes", n, what, r.remaining())
		return 0
	}
	return n
}

// tableRoom is room on the decoder's stack for the tables of a dump of
// an ordinary run, so that reading one allocates for its tables only
// the strings' bytes; larger tables are allocated.
type tableRoom struct {
	strs    [32]string
	shapes  [64]shape
	samples [256]sample
}

// table returns n entries of room, or of new memory if room is short.
func table[T any](room []T, n uint64) []T {
	if n <= uint64(len(room)) {
		return room[:n]
	}
	return make([]T, n)
}

// firstRepeat returns the index of the first entry of tab equal to an
// earlier one, or -1. Tables that fit a tableRoom are searched pairwise,
// without allocating.
func firstRepeat[T comparable](tab []T) int {
	if len(tab) <= 256 {
		for j := 1; j < len(tab); j++ {
			for i := 0; i < j; i++ {
				if tab[i] == tab[j] {
					return j
				}
			}
		}
		return -1
	}
	seen := make(map[T]struct{}, len(tab))
	for j, v := range tab {
		if _, dup := seen[v]; dup {
			return j
		}
		seen[v] = struct{}{}
	}
	return -1
}

// shapeTable reads the shape table, whose indexes into t's strings
// follow their first-use order, into room.
func (r *traceReader) shapeTable(t *recordTables, room []shape) []shape {
	n := r.count("shapes", minShapeBytes)
	if r.err != nil {
		return nil
	}
	shapes := table(room, n)
	for i := range shapes {
		sh := &shapes[i]
		kind := r.uv()
		if kind > math.MaxUint8 {
			r.fail("shape %d has kind %d", i, kind)
		}
		sh.kind, sh.bc = EventKind(uint8(kind)), r.uv()
		for k := range sh.strs {
			sh.strs[k] = uint32(r.ref(t, tabStrings, len(t.strs)))
		}
		if r.err != nil {
			return nil
		}
	}
	switch j := firstRepeat(shapes); {
	case j >= 0:
		r.fail("shape %d defined twice", j)
	case t.used[tabStrings] != uint64(len(t.strs)):
		r.fail("%d of %d strings never used", uint64(len(t.strs))-t.used[tabStrings], len(t.strs))
	}
	return shapes
}

// sampleTable reads the sample table into room.
func (r *traceReader) sampleTable(room []sample) []sample {
	n := r.count("samples", minSampleBytes)
	if r.err != nil {
		return nil
	}
	samples := table(room, n)
	for i := range samples {
		s := &samples[i]
		s.heap = r.uv()
		g := r.zz()
		if s.goroutines = int(g); int64(s.goroutines) != g {
			r.fail("goroutine count %d overflows int", g)
		}
	}
	if j := firstRepeat(samples); j >= 0 {
		r.fail("sample %d defined twice", j)
	}
	return samples
}

var errTraceMagic = errors.New("not a trace dump (bad magic)")

// decodeTraceDump parses a dump, and counts the events in it spelled as
// folds.
func decodeTraceDump(data []byte) (*TraceDump, int, error) {
	if len(data) < len(traceMagic)+1 || string(data[:len(traceMagic)]) != traceMagic {
		return nil, 0, errTraceMagic
	}
	if v := data[len(traceMagic)]; v != traceVersion {
		return nil, 0, fmt.Errorf("trace dump version %d is not read by this build, which reads version %d only: dump the run again", v, traceVersion)
	}
	r := traceReader{b: data, off: len(traceMagic) + 1}
	var t recordTables
	var room tableRoom // t's tables live only while the events are read

	d := &TraceDump{}
	pid := r.uv()
	if pid > math.MaxUint32 {
		r.fail("pid %d overflows 32 bits", pid)
	}
	d.PID = uint32(pid)
	d.Dropped = r.uv()

	// The string table: one backing string, sliced per entry.
	nstr := r.uv()
	if nstr == 0 || nstr > r.remaining() {
		r.fail("string table of %d entries in %d bytes", nstr, r.remaining())
		return nil, 0, r.err
	}
	strs := table(room.strs[:], nstr)
	tabStart := r.off
	for i := range strs {
		n := r.uv()
		if n > r.remaining() {
			r.fail("string %d of %d bytes in %d bytes", i, n, r.remaining())
			return nil, 0, r.err
		}
		r.off += int(n)
	}
	if r.err != nil {
		return nil, 0, r.err
	}
	blob := string(data[tabStart:r.off])
	r.off = tabStart
	for i := range strs {
		n := int(r.uv())
		lo := r.off - tabStart
		strs[i] = blob[lo : lo+n]
		r.off += n
	}
	if j := firstRepeat(strs); j >= 0 {
		r.fail("string %q defined twice", strs[j])
		return nil, 0, r.err
	}
	d.Entity = strs[0]
	t.strs, t.used[tabStrings] = strs, 1 // the entity is entry 0
	if t.shapes = r.shapeTable(&t, room.shapes[:]); r.err == nil {
		t.samples = r.sampleTable(room.samples[:])
	}

	nev, npv, ncomp := r.uv(), r.uv(), r.uv()
	if r.err != nil {
		return nil, 0, r.err
	}
	rem := r.remaining()
	if nev > 2*rem/minPairBytes || npv > nev || ncomp > nev || nev*minPairBytes/2+npv+ncomp > rem {
		r.fail("%d events, %d pvar samples, %d component arrays in %d bytes", nev, npv, ncomp, rem)
		return nil, 0, r.err
	}
	if nev > 0 {
		d.Events = make([]Event, nev)
	}
	if npv > 0 {
		r.pvars = make([]PVarSample, npv)
	}
	if ncomp > 0 {
		r.comps = make([][NumComponents]uint64, ncomp)
	}
	for i := range d.Events {
		if r.event(&d.Events[i], &t, d.Events[:i]); r.err != nil {
			return nil, 0, fmt.Errorf("event %d: %w", i, r.err)
		}
	}
	switch {
	case len(r.pvars) != 0 || len(r.comps) != 0:
		r.fail("%d pvar samples and %d component arrays declared but not used", len(r.pvars), len(r.comps))
	case t.used[tabShapes] != uint64(len(t.shapes)):
		r.fail("%d of %d shapes never used", uint64(len(t.shapes))-t.used[tabShapes], len(t.shapes))
	case t.used[tabSamples] != uint64(len(t.samples)):
		r.fail("%d of %d samples never used", uint64(len(t.samples))-t.used[tabSamples], len(t.samples))
	case r.off != len(r.b):
		r.fail("%d bytes after the last event", len(r.b)-r.off)
	}
	if r.err != nil {
		return nil, 0, r.err
	}
	return d, r.folds, nil
}
