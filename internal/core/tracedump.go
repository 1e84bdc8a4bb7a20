package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/bits"
	"slices"
)

// The trace dump format, version 4 (DESIGN.md §10 "Trace dump format").
// All integers are minimal-length varints: "uv" is an unsigned LEB128
// varint, "zz" a zigzag-coded signed one.
//
//	"SYTD" version:u8
//	pid:uv dropped:uv
//	nstrings:uv { len:uv bytes }*         strings[0] is the dump's entity
//	nshapes:uv { kind:uv breadcrumb:uv entity:uv peer:uv rpc:uv }*
//	nsamples:uv { heap_bytes:uv goroutines:zz }*
//	nevents:uv nrows:uv nvalues:uv       the span table the records make
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
// shapes — and holds no entry twice and none unused. nrows counts a row
// per event and one per fold whose Lamport order is below its start's
// (any other fold shares its start's row); nvalues counts the nonzero
// annotations, durations included, and each value of a mask.
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
	traceVersion = 4
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

// WriteTrace writes a trace dump in the binary trace dump format, with
// one Write call: the bytes it was read from or made as.
func WriteTrace(w io.Writer, d *TraceDump) error {
	_, err := w.Write(d.enc)
	return err
}

// dump lays the buffer's events out as a dump: the header, the tables
// and the records as they are. Its string table must hold the entity
// first.
func (t *traceBuf) dump(pid uint32, dropped uint64) []byte {
	size := 64 + 24*len(t.shapes.vals) + 16*len(t.samples.vals) + len(t.cur)
	for _, s := range t.strs.vals {
		size += 2 + len(s)
	}
	for _, c := range t.full {
		size += len(c)
	}
	b := make([]byte, 0, size)
	b = append(b, traceMagic...)
	b = append(b, traceVersion)
	b = binary.AppendUvarint(b, uint64(pid))
	b = binary.AppendUvarint(b, dropped)
	b = binary.AppendUvarint(b, uint64(len(t.strs.vals)))
	for _, s := range t.strs.vals {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	b = binary.AppendUvarint(b, uint64(len(t.shapes.vals)))
	for _, sh := range t.shapes.vals {
		b = binary.AppendUvarint(b, uint64(uint8(sh.kind)))
		b = binary.AppendUvarint(b, sh.bc)
		for _, s := range sh.strs {
			b = binary.AppendUvarint(b, uint64(s))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(t.samples.vals)))
	for _, s := range t.samples.vals {
		b = binary.AppendUvarint(b, s.heap)
		b = binary.AppendVarint(b, int64(s.goroutines))
	}
	b = binary.AppendUvarint(b, uint64(t.n))
	b = binary.AppendUvarint(b, uint64(t.rows))
	b = binary.AppendUvarint(b, uint64(t.vals))
	for _, c := range t.full {
		b = append(b, c...)
	}
	return append(b, t.cur...)
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
// ones, and returns the offset after them and how many there are.
func (r *eventRecord) masked(n int, vals []uint64) (int, int) {
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
	return n, bits.OnesCount64(mask)
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
// returns its length and how many values it adds to the value column.
// It and fold are the one event encoder. prev is the timestamp the delta
// is taken against, and shape and sample are the indexes of ev's shape
// and sample in the tables the record's reader will use.
func (r *eventRecord) full(ev *Event, pv *PVarSample, comps *[NumComponents]uint64, prev int64, shape, sample uint64) (int, int) {
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
// "fold" production above), and returns what full does. sample is the
// index of ev's sample, written if it is not the start's.
func (r *eventRecord) fold(ev *Event, pv *PVarSample, comps *[NumComponents]uint64, back uint64, sp *openSpan, sample uint64) (int, int) {
	differs := sample != uint64(sp.sample)
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
	n, vals := r.annotations(n, flags, ev, pv, comps)
	if ev.Duration != 0 {
		vals++ // always spelled, a value only when nonzero
	}
	return n, vals
}

// annotations writes the fields of a record after its head, at r[n:],
// and returns the offset after them and how many values the record's
// flags and masks put in the value column.
func (r *eventRecord) annotations(n int, flags uint64, ev *Event, pv *PVarSample, comps *[NumComponents]uint64) (int, int) {
	const valueFlags = evDuration | evQueue | evPoolRunnable | evPoolBlocked | evBatchID | evWindow
	vals := bits.OnesCount64(flags & valueFlags)
	var k int
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
		var pvals [numPVarFields]uint64
		for i, p := range pv.fields() {
			pvals[i] = *p
		}
		n, k = r.masked(n, pvals[:])
		vals += k
	}
	if comps != nil {
		n, k = r.masked(n, comps[:])
		vals += k
	}
	if flags&evBatchID != 0 {
		n = r.uv(n, ev.BatchID)
	}
	if flags&evWindow != 0 {
		n = r.zz(n, ev.WindowNanos)
	}
	return n, vals
}

// ReadTrace parses one trace dump written by WriteTrace into its span
// table. The input is not trusted: malformed bytes are an error, never a
// panic, and no count in them is believed beyond what the bytes that
// follow it could encode. A dump costs five allocations however many
// events it holds: its bytes, its strings (one backing string), the
// dump, its rows and its value column.
func ReadTrace(r io.Reader) (*TraceDump, error) {
	data, err := readAllSized(r)
	if err != nil {
		return nil, fmt.Errorf("core: read trace dump: %w", err)
	}
	d, err := decodeTraceDump(data)
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

	ts int64 // the timestamp the next record's delta adds to
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
	probe   Event // what the memo sees of a record
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

// halfRec is one decoded record: the half of a span row it makes, and
// the values its flags name, in column order.
type halfRec struct {
	req           uint64
	ts            int64
	order         uint64
	kind          EventKind
	shape, sample uint32
	flags         uint32
	slot          int // the memo slot of the start a fold pairs with; -1 for none
	n             int
	vals          [hValues]uint64
}

func (h *halfRec) put(bit int, v uint64) {
	h.flags |= 1 << bit
	h.vals[h.n] = v
	h.n++
}

// see sets t.probe to what the span memo sees of a record of h's
// request, timestamp and order, of shape sh but of the given kind.
func (t *recordTables) see(h *halfRec, sh *shape, kind EventKind) *Event {
	ev := &t.probe
	ev.RequestID, ev.Order, ev.Timestamp, ev.Kind, ev.Breadcrumb = h.req, h.order, h.ts, kind, sh.bc
	ev.Entity, ev.Peer, ev.RPCName = t.strs[sh.strs[0]], t.strs[sh.strs[1]], t.strs[sh.strs[2]]
	return ev
}

// record reads one record (what eventRecord.full or fold wrote), the
// event at index pos of its sequence, into *h.
func (r *traceReader) record(h *halfRec, t *recordTables, pos uint64) {
	flags := r.uv()
	h.flags, h.slot, h.n = 1<<hPresent, -1, 0
	switch {
	case flags>>evFlagBits != 0:
		r.fail("unknown event flag bits %#x", flags)
	case flags&evFold != 0 && flags&fullOnly != 0:
		r.fail("fold with flag bits %#x of a full record", flags&fullOnly)
	case flags&evFold == 0 && flags&foldOnly != 0:
		r.fail("full record with flag bits %#x of a fold", flags&foldOnly)
	case flags&evFold != 0:
		r.fold(h, t, flags, pos)
	default:
		r.full(h, t, flags, pos)
	}
	if r.err != nil {
		return
	}
	if flags&evFailed != 0 {
		h.flags |= 1 << hFailed
	}
	if flags&evQueue != 0 {
		h.put(hQueue, r.nonzero(uint64(r.zz())))
	}
	if flags&evPoolRunnable != 0 {
		h.put(hPoolRunnable, r.nonzero(uint64(r.zz())))
	}
	if flags&evPoolBlocked != 0 {
		h.put(hPoolBlocked, r.nonzero(uint64(r.zz())))
	}
	if flags&evPVars != 0 {
		r.masked(h, hPVars, hPVar0, numPVarFields)
	}
	if flags&evComponents != 0 {
		r.masked(h, hComps, hComp0, int(NumComponents))
	}
	if flags&evBatchID != 0 {
		h.put(hBatchID, r.nonzero(r.uv()))
	}
	if flags&evWindow != 0 {
		h.put(hWindow, r.nonzero(uint64(r.zz())))
	}
}

// masked reads a presence mask and the nonzero counters it names into
// h, as value bits first, first+1, ...: a PVAR sample or component array
// of width counters, flagged by bit has.
func (r *traceReader) masked(h *halfRec, has, first, width int) {
	h.flags |= 1 << has
	mask := r.uv()
	if mask>>width != 0 {
		r.fail("presence mask %#x wider than %d fields", mask, width)
		return
	}
	for ; mask != 0; mask &= mask - 1 {
		h.put(first+bits.TrailingZeros64(mask), r.nonzero(r.uv()))
	}
}

// full reads the head of a full record: IDs, timestamp, shape, sample
// and duration. It must not be an end the memo would fold.
func (r *traceReader) full(h *halfRec, t *recordTables, flags, pos uint64) {
	h.req, h.order = r.uv(), r.uv()
	r.ts += r.zz()
	h.ts = r.ts
	shi, smi := r.ref(t, tabShapes, len(t.shapes)), r.ref(t, tabSamples, len(t.samples))
	if r.err != nil {
		return
	}
	sh := &t.shapes[shi]
	h.kind, h.shape, h.sample = sh.kind, uint32(shi), uint32(smi)
	ev := t.see(h, sh, sh.kind)
	if sp := t.spans.close(ev, t.strs, t.shapes); sp != nil {
		r.fail("a full record of the end that folds into event %d", sp.pos)
		return
	}
	t.spans.open(ev, pos, shi, smi)
	if flags&evDuration != 0 {
		h.put(hDuration, r.nonzero(uint64(r.zz())))
	}
}

// fold reads the head of a fold, whose start, back events before it,
// must be the open start the memo closes for the end it spells. The
// fold pairs with its start unless its Lamport order is below the
// start's: then an end comes first in the order spans are paired in.
func (r *traceReader) fold(h *halfRec, t *recordTables, flags, pos uint64) {
	back := r.uv()
	if r.err != nil {
		return
	}
	j := -1
	if back != 0 && back <= pos {
		j = t.spans.slotOf(pos - back)
	}
	if j < 0 {
		r.fail("fold %d events back from event %d, to no open start in the memo", back, pos)
		return
	}
	sp := &t.spans.spans[j]
	sh := &t.shapes[sp.shape1-1]
	h.req, h.kind, h.shape, h.sample = t.spans.ids[j], spanPartner(sh.kind), sp.shape1-1, sp.sample
	h.flags |= 1 << hPartner
	if t.spans.close(t.see(h, sh, h.kind), t.strs, t.shapes) != sp {
		r.fail("fold into event %d, past a newer open start of its span", sp.pos)
		return
	}
	dur := r.zz()
	var tsRes, orderRes int64
	if flags&evTSResidual != 0 {
		tsRes = int64(r.nonzero(uint64(r.zz())))
	}
	if flags&evOrderResidual != 0 {
		orderRes = int64(r.nonzero(uint64(r.zz())))
	}
	h.ts, h.order = sp.ts+dur+tsRes, sp.order+1+uint64(orderRes)
	r.ts = h.ts
	if dur != 0 {
		h.put(hDuration, uint64(dur))
	}
	if flags&evSample != 0 {
		i := r.ref(t, tabSamples, len(t.samples))
		if r.err == nil && t.samples[i] == t.samples[sp.sample] {
			r.fail("fold repeats its start's sample")
		}
		h.sample = uint32(i)
	}
	if h.order >= sp.order {
		h.slot = j
	}
}

// slotOf returns the memo slot of the open start at index pos of the
// sequence, or -1. The slots hold starts in sequence order, so the
// search goes from the newest start back to the first before pos.
func (m *spanMemo) slotOf(pos uint64) int {
	for i := m.n; i > 0 && i+memoSpans > m.n; i-- {
		j := (i - 1) % memoSpans
		if p := m.spans[j].pos; p <= pos {
			if p == pos && m.spans[j].shape1 != 0 {
				return int(j)
			}
			break
		}
	}
	return -1
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
	offs    [32]uint64
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

// decodeTraceDump parses a dump into its span table.
func decodeTraceDump(data []byte) (*TraceDump, error) {
	if len(data) < len(traceMagic)+1 || string(data[:len(traceMagic)]) != traceMagic {
		return nil, errTraceMagic
	}
	if v := data[len(traceMagic)]; v != traceVersion {
		return nil, fmt.Errorf("trace dump version %d is not read by this build, which reads version %d only: dump the run again", v, traceVersion)
	}
	r := traceReader{b: data, off: len(traceMagic) + 1}
	var t recordTables
	var room tableRoom // t's tables live only while the records are read

	pid := r.uv()
	if pid > math.MaxUint32 {
		r.fail("pid %d overflows 32 bits", pid)
	}
	dropped := r.uv()

	// The string table: one backing string, sliced per entry.
	nstr := r.uv()
	if nstr == 0 || nstr > r.remaining() {
		r.fail("string table of %d entries in %d bytes", nstr, r.remaining())
		return nil, r.err
	}
	strs, offs := table(room.strs[:], nstr), table(room.offs[:], nstr)
	tabStart := r.off
	for i := range strs {
		n := r.uv()
		if n > r.remaining() {
			r.fail("string %d of %d bytes in %d bytes", i, n, r.remaining())
			return nil, r.err
		}
		lo := uint64(r.off - tabStart)
		offs[i] = lo<<32 | (lo + n)
		r.off += int(n)
	}
	if r.err != nil {
		return nil, r.err
	}
	blob := string(data[tabStart:r.off])
	for i, w := range offs {
		strs[i] = blob[w>>32 : uint32(w)]
	}
	if j := firstRepeat(strs); j >= 0 {
		r.fail("string %q defined twice", strs[j])
		return nil, r.err
	}
	t.strs, t.used[tabStrings] = strs, 1 // the entity is entry 0
	if t.shapes = r.shapeTable(&t, room.shapes[:]); r.err == nil {
		t.samples = r.sampleTable(room.samples[:])
	}

	// The header declares the span table the records make: it sizes the
	// rows and the value column, which starts with the tables, and the
	// records must fill them exactly. A value takes a byte at least.
	nev, nrows, nvals := r.uv(), r.uv(), r.uv()
	if r.err != nil {
		return nil, r.err
	}
	rem, tables := r.remaining(), uint64(len(strs)+3*len(t.shapes)+2*len(t.samples))
	if nev > 2*rem/minPairBytes || nev*minPairBytes/2 > rem || nev > math.MaxUint32 || nrows > nev || nvals > rem || tables+nvals > math.MaxUint32 {
		r.fail("%d events, %d rows, %d values in %d bytes", nev, nrows, nvals, rem)
		return nil, r.err
	}
	b := spanBuilder{rows: make([]SpanRow, 0, nrows), vals: make([]uint64, tables, tables+nvals)}
	w := b.vals[copy(b.vals, offs):]
	for i, sh := range t.shapes {
		w[3*i], w[3*i+1], w[3*i+2] = sh.bc, uint64(uint8(sh.kind))|uint64(sh.strs[0])<<32, uint64(sh.strs[1])|uint64(sh.strs[2])<<32
	}
	w = w[3*len(t.shapes):]
	for i, sm := range t.samples {
		w[2*i], w[2*i+1] = sm.heap, uint64(sm.goroutines)
	}
	if err := b.read(&r, &t, nev); err != nil {
		return nil, err
	}
	switch {
	case len(b.rows) != cap(b.rows) || len(b.vals) != cap(b.vals):
		r.fail("%d rows and %d values declared, %d and %d made", nrows, nvals, len(b.rows), uint64(len(b.vals))-tables)
	case t.used[tabShapes] != uint64(len(t.shapes)):
		r.fail("%d of %d shapes never used", uint64(len(t.shapes))-t.used[tabShapes], len(t.shapes))
	case t.used[tabSamples] != uint64(len(t.samples)):
		r.fail("%d of %d samples never used", uint64(len(t.samples))-t.used[tabSamples], len(t.samples))
	case r.off != len(r.b):
		r.fail("%d bytes after the last event", len(r.b)-r.off)
	}
	if r.err != nil {
		return nil, r.err
	}
	d := &TraceDump{dropped: dropped, enc: data, rows: b.rows, vals: b.vals, strs: blob, nstrs: len(strs), nshapes: len(t.shapes)}
	d.pair(t.shapes)
	return d, nil
}

// spanBuilder makes a dump's span rows from its records: each record
// is a half of a row of its own, but a fold pairs with its start, and is
// the other half of the start's row.
type spanBuilder struct {
	rows  []SpanRow
	vals  []uint64
	rowOf [memoSpans]uint32 // the row of each memo slot's start
}

// read reads the dump's n records into rows and values.
func (b *spanBuilder) read(r *traceReader, t *recordTables, n uint64) error {
	var h halfRec
	for pos := uint64(0); pos < n; pos++ {
		opened := t.spans.n
		if r.record(&h, t, pos); r.err != nil {
			return fmt.Errorf("event %d: %w", pos, r.err)
		}
		row := len(b.rows)
		switch {
		case h.slot >= 0:
			row = int(b.rowOf[h.slot])
		case row == cap(b.rows):
			return fmt.Errorf("event %d: more than the %d rows declared", pos, row)
		default:
			b.rows = append(b.rows, SpanRow{RequestID: h.req})
		}
		if h.n > cap(b.vals)-len(b.vals) {
			return fmt.Errorf("event %d: more values than declared", pos)
		}
		if t.spans.n != opened {
			b.rowOf[opened%memoSpans] = uint32(row)
		}
		half := SpanStart
		if isSpanEnd(h.kind) {
			half = SpanEnd
		}
		b.rows[row].set(half, spanHalf{h.ts, h.order, uint32(pos), h.shape, h.sample, uint32(len(b.vals)), h.flags})
		b.vals = append(b.vals, h.vals[:h.n]...)
	}
	return nil
}

// spanHalf is one half of a span row, as pairing moves it.
type spanHalf struct {
	ts                              int64
	order                           uint64
	pos, shape, sample, vals, flags uint32
}

func (r *SpanRow) half(h int) spanHalf {
	return spanHalf{r.Timestamp[h], r.Order[h], r.Pos[h], r.shape[h], r.sample[h], r.vals[h], r.flags[h]}
}

func (r *SpanRow) set(h int, x spanHalf) {
	r.Timestamp[h], r.Order[h], r.Pos[h], r.shape[h], r.sample[h], r.vals[h], r.flags[h] = x.ts, x.order, x.pos, x.shape, x.sample, x.vals, x.flags
}

// spanKey is what pairs a start with an end: the side of the RPC they
// are on, their breadcrumb and entity.
type spanKey struct {
	origin bool
	bc     uint64
	entity uint32
}

// keyOf returns x's span key and kind; ok is false for an event of no
// span.
func keyOf(x spanHalf, shapes []shape) (k spanKey, kind EventKind, ok bool) {
	sh := &shapes[x.shape]
	kind = halfKind(sh.kind, x.flags)
	return spanKey{kind == EvOriginStart || kind == EvOriginEnd, sh.bc, sh.strs[0]}, kind, isSpanStart(kind) || isSpanEnd(kind)
}

// pair makes the rows' pairing the paper's: in Lamport order, each end
// closes the oldest open start of its request and span key. Where a
// request has one row the fold made it so already: its start and end,
// the end no earlier in Lamport order (a fold earlier is a row of its
// own). The rows of a request that has more, an open-addressed table of
// row numbers finds (on the stack for up to 2,048 rows); they are
// paired again by the rule and take the places they had, in the order
// of their ends.
func (d *TraceDump) pair(shapes []shape) {
	rows := d.rows
	var room [4096]uint32
	shift := 12
	for 1<<shift < 2*len(rows) {
		shift++
	}
	slots := room[:]
	if 1<<shift > len(room) {
		slots = make([]uint32, 1<<shift)
	}
	var dups []uint32 // rows whose request has another
	for i := range rows {
		id := rows[i].RequestID
		h := id * 0x9e3779b97f4a7c15 >> (64 - shift)
		for ; slots[h] != 0; h = (h + 1) & uint64(len(slots)-1) {
			if j := slots[h] - 1; rows[j].RequestID == id {
				if dups == nil {
					dups = make([]uint32, 0, 2*len(rows))
				}
				dups = append(dups, j, uint32(i))
				break
			}
		}
		if slots[h] == 0 {
			slots[h] = uint32(i + 1)
		}
	}
	if len(dups) == 0 {
		return
	}
	slices.SortFunc(dups, func(a, b uint32) int {
		return cmp.Or(cmp.Compare(rows[a].RequestID, rows[b].RequestID), cmp.Compare(a, b))
	})
	dups = slices.Compact(dups)
	longest := 0
	for lo, hi := 0, 0; lo < len(dups); lo = hi {
		for hi = lo + 1; hi < len(dups) && rows[dups[hi]].RequestID == rows[dups[lo]].RequestID; hi++ {
		}
		longest = max(longest, hi-lo)
	}
	// Scratch for the halves, open starts and rows of the longest request.
	halves, open, out := make([]spanHalf, 0, 2*longest), make([]int, 0, 2*longest), make([]SpanRow, 0, longest)
	emptied := false
	for lo, hi := 0, 0; lo < len(dups); lo = hi {
		for hi = lo + 1; hi < len(dups) && rows[dups[hi]].RequestID == rows[dups[lo]].RequestID; hi++ {
		}
		paired := repair(rows, dups[lo:hi], shapes, halves, open, out)
		slices.SortFunc(paired, func(a, b SpanRow) int { return compareRows(&a, &b) })
		for k, i := range dups[lo:hi] {
			rows[i] = SpanRow{} // a place the pairing left empty, unless filled now
			if k < len(paired) {
				rows[i] = paired[k]
			}
		}
		emptied = emptied || len(paired) < hi-lo
	}
	if emptied {
		d.rows = slices.DeleteFunc(rows, func(r SpanRow) bool { return !r.Has(SpanStart) && !r.Has(SpanEnd) })
	}
}

// last returns the row's last half that holds an event.
func (r *SpanRow) last() int { return int(r.flags[SpanEnd] >> hPresent) }

// repair pairs the halves of one request's rows, at the places given,
// by the rule, and returns the rows that makes: never more, for every
// pair of the folds is one the rule could make, and the rule pairs as
// many ends as any pairing of its order can.
func repair(rows []SpanRow, places []uint32, shapes []shape, halves []spanHalf, open []int, out []SpanRow) []SpanRow {
	for _, i := range places {
		for h := range rows[i].flags {
			if rows[i].Has(h) {
				halves = append(halves, rows[i].half(h))
			}
		}
	}
	slices.SortFunc(halves, func(a, b spanHalf) int { return cmp.Or(cmp.Compare(a.order, b.order), cmp.Compare(a.pos, b.pos)) })
	req := rows[places[0]].RequestID
	put := func(h int, x spanHalf) *SpanRow {
		out = append(out, SpanRow{RequestID: req})
		out[len(out)-1].set(h, x)
		return &out[len(out)-1]
	}
	for i, x := range halves { // open holds the indexes of the unmatched starts
		k, kind, ok := keyOf(x, shapes)
		switch {
		case !ok:
			put(SpanStart, x)
		case isSpanStart(kind):
			open = append(open, i)
		default:
			at := slices.IndexFunc(open, func(j int) bool { kj, _, _ := keyOf(halves[j], shapes); return kj == k })
			if at < 0 {
				put(SpanEnd, x)
				continue
			}
			put(SpanStart, halves[open[at]]).set(SpanEnd, x)
			open = slices.Delete(open, at, at+1)
		}
	}
	for _, j := range open {
		put(SpanStart, halves[j])
	}
	return out
}

// compareRows orders rows by request ID, then by the Lamport order and
// index of their ends (of their starts, for rows without).
func compareRows(a, b *SpanRow) int {
	if a.RequestID != b.RequestID {
		return cmp.Compare(a.RequestID, b.RequestID)
	}
	ha, hb := a.last(), b.last()
	return cmp.Or(cmp.Compare(a.Order[ha], b.Order[hb]), cmp.Compare(a.Pos[ha], b.Pos[hb]))
}
