package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
)

// The trace dump format, version 1 (DESIGN.md §10 "Trace dump format").
// All integers are minimal-length varints: "uv" is an unsigned LEB128
// varint, "zz" a zigzag-coded signed one.
//
//	"SYTD" version:u8
//	pid:uv dropped:uv
//	nstrings:uv { len:uv bytes }*         strings[0] is the dump's entity
//	nevents:uv npvars:uv ncomponents:uv
//	{ event }*
//
//	event:
//	  flags:uv                            evFlag bits, Kind above them
//	  request_id:uv order:uv breadcrumb:uv
//	  timestamp:zz                        delta against the previous event
//	  entity:uv peer:uv rpc:uv            string-table indexes
//	  [duration:zz] [batch_id:uv] [queue_ns:zz] [window_ns:zz]
//	  [pool_runnable:zz] [pool_blocked:zz] [heap_bytes:uv] [goroutines:zz]
//	  [pvars: mask:uv { field:uv }*]      one value per set mask bit
//	  [components: mask:uv { ns:uv }*]
//
// A bracketed field is present when its flag bit is set, and is set only
// for a nonzero value (a non-nil pointer, for pvars and components).
// Strings appear in the table in the order the events first use them.
// Together with the minimal varints this makes the encoding of a dump
// unique: ReadTrace rejects every other spelling, so what it accepts
// re-encodes to the same bytes.
//
// The version byte changes whenever a reader of the old layout would
// misread the new one: a field added to Event, SysSample or PVarSample,
// a change of NumComponents, a new flag bit, a reordering.
const (
	traceMagic   = "SYTD"
	traceVersion = 1
)

// Event flag bits. Kind rides above them as an unsigned byte.
const (
	evFailed = 1 << iota
	evDuration
	evBatchID
	evQueue
	evWindow
	evPoolRunnable
	evPoolBlocked
	evHeapBytes
	evGoroutines
	evPVars
	evComponents

	evFlagBits = iota
)

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

// minEventBytes is the shortest encoded event: flags, three IDs, the
// timestamp delta and three string indexes, one byte each.
const minEventBytes = 8

// WriteTrace serializes a trace dump in the binary trace dump format,
// with one Write call.
func WriteTrace(w io.Writer, d *TraceDump) error {
	_, err := w.Write(encodeTraceDump(d))
	return err
}

func encodeTraceDump(d *TraceDump) []byte {
	// First pass: define each string once, in first-use order, and count
	// the annotations so the reader can size its storage up front.
	index := map[string]uint64{d.Entity: 0}
	strs := []string{d.Entity}
	intern := func(s string) {
		if _, ok := index[s]; !ok {
			index[s] = uint64(len(strs))
			strs = append(strs, s)
		}
	}
	var npvars, ncomps uint64
	for i := range d.Events {
		ev := &d.Events[i]
		intern(ev.Entity)
		intern(ev.Peer)
		intern(ev.RPCName)
		if ev.PVars != nil {
			npvars++
		}
		if ev.Components != nil {
			ncomps++
		}
	}

	b := make([]byte, 0, 64+48*len(d.Events))
	b = append(b, traceMagic...)
	b = append(b, traceVersion)
	b = binary.AppendUvarint(b, uint64(d.PID))
	b = binary.AppendUvarint(b, d.Dropped)
	b = binary.AppendUvarint(b, uint64(len(strs)))
	for _, s := range strs {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	b = binary.AppendUvarint(b, uint64(len(d.Events)))
	b = binary.AppendUvarint(b, npvars)
	b = binary.AppendUvarint(b, ncomps)

	var prev int64
	var rec eventRecord
	for i := range d.Events {
		ev := &d.Events[i]
		n := rec.encode(ev, ev.PVars, ev.Components, prev, index[ev.Entity], index[ev.Peer], index[ev.RPCName])
		b = append(b, rec[:n]...)
		prev = ev.Timestamp
	}
	return b
}

// eventRecord is room for the longest event record: the flags word,
// three IDs, the timestamp delta, three string indexes, eight optional
// fields and the two masked annotation blocks, every varint at its full
// ten bytes. Records are built in one (on the stack) and then appended
// to where they are kept, so the encoder writes by index and never
// grows anything.
type eventRecord [3 + (3+1+3+8)*binary.MaxVarintLen64 +
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

// encode writes one event record (the "event" production above) into r
// and returns its length. It is the one event encoder: a dump file and a
// Tracer's in-memory chunks hold the same bytes per event. pv and comps
// are the event's annotations, passed beside it because the recording
// path holds them apart from ev (ev.PVars and ev.Components are not
// read); prev is the timestamp the delta is taken against, and entity,
// peer and rpc are the indexes of ev's strings in whatever table the
// record's reader will use.
func (r *eventRecord) encode(ev *Event, pv *PVarSample, comps *[NumComponents]uint64, prev int64, entity, peer, rpc uint64) int {
	flags := uint64(uint8(ev.Kind)) << evFlagBits
	set := func(bit uint64, on bool) {
		if on {
			flags |= bit
		}
	}
	set(evFailed, ev.Failed)
	set(evDuration, ev.Duration != 0)
	set(evBatchID, ev.BatchID != 0)
	set(evQueue, ev.QueueNanos != 0)
	set(evWindow, ev.WindowNanos != 0)
	set(evPoolRunnable, ev.Sys.PoolRunnable != 0)
	set(evPoolBlocked, ev.Sys.PoolBlocked != 0)
	set(evHeapBytes, ev.Sys.HeapBytes != 0)
	set(evGoroutines, ev.Sys.Goroutines != 0)
	set(evPVars, pv != nil)
	set(evComponents, comps != nil)

	n := r.uv(0, flags)
	n = r.uv(n, ev.RequestID)
	n = r.uv(n, ev.Order)
	n = r.uv(n, ev.Breadcrumb)
	n = r.zz(n, ev.Timestamp-prev) // wraps; the reader's sum wraps back
	n = r.uv(n, entity)
	n = r.uv(n, peer)
	n = r.uv(n, rpc)
	if flags&evDuration != 0 {
		n = r.zz(n, ev.Duration)
	}
	if flags&evBatchID != 0 {
		n = r.uv(n, ev.BatchID)
	}
	if flags&evQueue != 0 {
		n = r.zz(n, ev.QueueNanos)
	}
	if flags&evWindow != 0 {
		n = r.zz(n, ev.WindowNanos)
	}
	if flags&evPoolRunnable != 0 {
		n = r.zz(n, ev.Sys.PoolRunnable)
	}
	if flags&evPoolBlocked != 0 {
		n = r.zz(n, ev.Sys.PoolBlocked)
	}
	if flags&evHeapBytes != 0 {
		n = r.uv(n, ev.Sys.HeapBytes)
	}
	if flags&evGoroutines != 0 {
		n = r.zz(n, int64(ev.Sys.Goroutines))
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
	return n
}

// ReadTrace parses one trace dump written by WriteTrace. The input is
// not trusted: malformed bytes are an error, never a panic, and no
// count in them is believed beyond what the bytes that follow it could
// encode. One dump costs a fixed number of allocations however many
// events it holds: its bytes, its strings (one backing string), and one
// array each of events, PVAR samples and component breakdowns that the
// events' PVars and Components point into.
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

	strs []string // the string table
	used uint64   // how many of its entries the events have used so far

	// Event decoding state: the timestamp the next delta adds to, and
	// the storage the next PVAR sample and component array go into.
	ts    int64
	pvars []PVarSample
	comps [][NumComponents]uint64
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

// str reads a string-table index. The writer numbers strings in the
// order events first use them, so an index may be at most one past the
// highest seen so far.
func (r *traceReader) str() string {
	i := r.uv()
	if i > r.used || i >= uint64(len(r.strs)) {
		r.fail("string index %d out of first-use order (%d of %d used)", i, r.used, len(r.strs))
		return ""
	}
	if i == r.used {
		r.used++
	}
	return r.strs[i]
}

// event reads one event record (what eventRecord.encode wrote) into *ev, which
// the caller hands over zeroed, pointing its annotations at the next
// free entries of r.pvars and r.comps.
func (r *traceReader) event(ev *Event) {
	flags := r.uv()
	if flags>>(evFlagBits+8) != 0 {
		r.fail("unknown event flag bits %#x", flags)
	}
	ev.Kind = EventKind(uint8(flags >> evFlagBits))
	ev.RequestID = r.uv()
	ev.Order = r.uv()
	ev.Breadcrumb = r.uv()
	r.ts += r.zz()
	ev.Timestamp = r.ts
	ev.Entity = r.str()
	ev.Peer = r.str()
	ev.RPCName = r.str()
	ev.Failed = flags&evFailed != 0
	if flags&evDuration != 0 {
		ev.Duration = int64(r.nonzero(uint64(r.zz())))
	}
	if flags&evBatchID != 0 {
		ev.BatchID = r.nonzero(r.uv())
	}
	if flags&evQueue != 0 {
		ev.QueueNanos = int64(r.nonzero(uint64(r.zz())))
	}
	if flags&evWindow != 0 {
		ev.WindowNanos = int64(r.nonzero(uint64(r.zz())))
	}
	if flags&evPoolRunnable != 0 {
		ev.Sys.PoolRunnable = int64(r.nonzero(uint64(r.zz())))
	}
	if flags&evPoolBlocked != 0 {
		ev.Sys.PoolBlocked = int64(r.nonzero(uint64(r.zz())))
	}
	if flags&evHeapBytes != 0 {
		ev.Sys.HeapBytes = r.nonzero(r.uv())
	}
	if flags&evGoroutines != 0 {
		g := int64(r.nonzero(uint64(r.zz())))
		if int64(int(g)) != g {
			r.fail("goroutine count %d overflows int", g)
		}
		ev.Sys.Goroutines = int(g)
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
}

var errTraceMagic = errors.New("not a trace dump (bad magic)")

func decodeTraceDump(data []byte) (*TraceDump, error) {
	if len(data) < len(traceMagic)+1 || string(data[:len(traceMagic)]) != traceMagic {
		return nil, errTraceMagic
	}
	if v := data[len(traceMagic)]; v != traceVersion {
		return nil, fmt.Errorf("unsupported trace dump version %d (this reader knows %d)", v, traceVersion)
	}
	r := &traceReader{b: data, off: len(traceMagic) + 1}

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
		return nil, r.err
	}
	strs := make([]string, nstr)
	tabStart := r.off
	for i := range strs {
		n := r.uv()
		if n > r.remaining() {
			r.fail("string %d of %d bytes in %d bytes", i, n, r.remaining())
			return nil, r.err
		}
		r.off += int(n)
	}
	if r.err != nil {
		return nil, r.err
	}
	blob := string(data[tabStart:r.off])
	seen := make(map[string]struct{}, min(len(strs), 64))
	r.off = tabStart
	for i := range strs {
		n := int(r.uv())
		lo := r.off - tabStart
		strs[i] = blob[lo : lo+n]
		r.off += n
		if _, dup := seen[strs[i]]; dup {
			r.fail("string %q defined twice", strs[i])
			return nil, r.err
		}
		seen[strs[i]] = struct{}{}
	}
	d.Entity = strs[0]
	r.strs, r.used = strs, 1 // the entity is entry 0

	nev, npv, ncomp := r.uv(), r.uv(), r.uv()
	if r.err != nil {
		return nil, r.err
	}
	rem := r.remaining()
	if nev > rem/minEventBytes || npv > nev || ncomp > nev || nev*minEventBytes+npv+ncomp > rem {
		r.fail("%d events, %d pvar samples, %d component arrays in %d bytes", nev, npv, ncomp, rem)
		return nil, r.err
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
		if r.event(&d.Events[i]); r.err != nil {
			return nil, fmt.Errorf("event %d: %w", i, r.err)
		}
	}
	switch {
	case len(r.pvars) != 0 || len(r.comps) != 0:
		r.fail("%d pvar samples and %d component arrays declared but not used", len(r.pvars), len(r.comps))
	case r.used != nstr:
		r.fail("%d of %d strings never used", nstr-r.used, nstr)
	case r.off != len(r.b):
		r.fail("%d bytes after the last event", len(r.b)-r.off)
	}
	if r.err != nil {
		return nil, r.err
	}
	return d, nil
}
