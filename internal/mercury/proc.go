package mercury

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Op selects the direction of a Proc pass.
type Op int8

// Proc directions.
const (
	// OpEncode serializes fields into the wire buffer.
	OpEncode Op = iota
	// OpDecode parses fields from the wire buffer.
	OpDecode
)

// Proc errors.
var (
	ErrProcShort  = errors.New("mercury: proc buffer exhausted")
	ErrProcString = errors.New("mercury: string length out of range")
)

// Procable is the interface of RPC argument types. A single Proc method
// drives both serialization and deserialization, mirroring Mercury's
// hg_proc callbacks: the method visits each field in order and the Proc's
// direction decides whether the field is written or read.
//
// Byte-slice fields of a decoded value are views of the buffer that was
// decoded: read-only, and valid for as long as that buffer is (for a wire
// frame, see Handle.GetInput and Handle.GetOutput). Copy what must be
// modified or kept longer: a reply type whose bytes outlive the call
// copies them in its own Proc.
type Procable interface {
	Proc(p *Proc) error
}

// Records pools the per-call argument or reply records of one type. A
// record passed to Forward, GetInput or Respond travels as a Procable
// interface, so one declared on the stack escapes to the heap on every
// call; a service takes it from here instead and puts it back when the
// call is over. The zero value is ready to use.
type Records[T any] struct{ pool sync.Pool }

// Get returns a zeroed record.
func (r *Records[T]) Get() *T {
	if v, ok := r.pool.Get().(*T); ok {
		return v
	}
	return new(T)
}

// Put zeroes v, dropping whatever views it held, and recycles it.
func (r *Records[T]) Put(v *T) {
	var zero T
	*v = zero
	r.pool.Put(v)
}

// Proc is a serialization cursor over a wire buffer.
type Proc struct {
	op  Op
	buf []byte
	off int
	err error
	// framed marks an encoder whose buffer is a pooled wire frame: it
	// grows by moving to the next frame class, never by append.
	framed bool
}

// procPool recycles Proc cursors so the per-call encode/decode on the
// RPC hot path (Forward, Respond, GetInput, GetOutput) does not allocate
// a cursor each time. Released Procs drop their buffer reference; arena
// buffers are pooled separately so they can grow in place and be handed
// between cursors.
var procPool = sync.Pool{New: func() any { return new(Proc) }}

// acquireEncoder returns a pooled Proc encoding by appending to dst
// (which may be nil or a recycled arena).
func acquireEncoder(dst []byte) *Proc {
	p := procPool.Get().(*Proc)
	p.op, p.buf = OpEncode, dst
	return p
}

// acquireDecoder returns a pooled Proc decoding from buf.
func acquireDecoder(buf []byte) *Proc {
	p := procPool.Get().(*Proc)
	p.op, p.buf = OpDecode, buf
	return p
}

// releaseProc returns a pooled Proc. The cursor must not be used after
// release; its buffer reference is cleared so pooled cursors never pin
// wire frames or arenas.
func releaseProc(p *Proc) {
	*p = Proc{}
	procPool.Put(p)
}

// arenaMaxRetain bounds the capacity of buffers returned to the arena
// pools; occasional giant payloads are dropped to the GC rather than
// held forever by a pool.
const arenaMaxRetain = 1 << 20

// arenaSmall separates the two arena pools by capacity: header cursors
// and RPC payload encodes draw from the small one, bulk landing and
// registered buffers from the large one, so a forty-byte header encode
// never holds a megabyte and a packed put does not regrow a 512-byte
// arena every time.
const arenaSmall = 64 << 10

// arenaPools recycle scratch buffers: grow-in-place during use,
// reset-on-put. Buffers are pooled as *[]byte to avoid the slice-header
// allocation a plain []byte interface conversion would cost.
var arenaPools [2]sync.Pool

func arenaPool(n int) *sync.Pool {
	if n > arenaSmall {
		return &arenaPools[1]
	}
	return &arenaPools[0]
}

// GetArena returns a zero-length scratch buffer with retained capacity,
// from the pool whose buffers are the likelier to hold n bytes (it is
// still the caller's to grow), or a new one of n bytes. Besides the
// encode paths here, it backs margo's per-request Context.Scratch and
// the buffer sdskv registers for a packed put.
func GetArena(n int) *[]byte {
	if a := ReuseArena(n); a != nil {
		return a
	}
	b := make([]byte, 0, max(n, 512))
	return &b
}

// ReuseArena is GetArena for a caller that may never fill n bytes: nil
// when that pool is empty, rather than a new buffer of n bytes.
func ReuseArena(n int) *[]byte {
	a, _ := arenaPool(n).Get().(*[]byte)
	return a
}

// PutArena resets and recycles a scratch buffer. Pass the (possibly
// reallocated) slice back so grown capacity is retained for the next
// user. Must not be called while any live data aliases the buffer: in
// race builds what it held is overwritten, as a recycled frame is.
func PutArena(a *[]byte, b []byte) {
	if RaceEnabled {
		poison(b)
	}
	if cap(b) > arenaMaxRetain {
		return
	}
	*a = b[:0]
	arenaPool(cap(b)).Put(a)
}

// Op reports the direction of the pass.
func (p *Proc) Op() Op { return p.op }

// Err returns the first error encountered.
func (p *Proc) Err() error { return p.err }

// Remaining reports unread bytes (decode direction).
func (p *Proc) Remaining() int { return len(p.buf) - p.off }

func (p *Proc) fail(err error) error {
	if p.err == nil {
		p.err = err
	}
	return p.err
}

func (p *Proc) take(n int) ([]byte, error) {
	if p.err != nil {
		return nil, p.err
	}
	if p.off+n > len(p.buf) {
		return nil, p.fail(fmt.Errorf("%w: need %d have %d", ErrProcShort, n, len(p.buf)-p.off))
	}
	b := p.buf[p.off : p.off+n]
	p.off += n
	return b, nil
}

// reserve makes sure the next n bytes can be appended in place.
func (p *Proc) reserve(n int) {
	if cap(p.buf)-len(p.buf) < n {
		p.grow(n)
	}
}

// grow makes room for n more bytes. A framed encoder moves what it has
// into a frame of the next class and recycles the one it outgrew.
func (p *Proc) grow(n int) {
	if !p.framed {
		p.buf = slices.Grow(p.buf, n)
		return
	}
	next := append(getFrame(len(p.buf)+n), p.buf...)
	putFrame(p.buf)
	p.buf = next
}

// Uint64 processes a fixed-width 64-bit unsigned field.
func (p *Proc) Uint64(v *uint64) error {
	if p.op == OpEncode {
		if p.err != nil {
			return p.err
		}
		p.reserve(8)
		p.buf = binary.LittleEndian.AppendUint64(p.buf, *v)
		return nil
	}
	b, err := p.take(8)
	if err != nil {
		return err
	}
	*v = binary.LittleEndian.Uint64(b)
	return nil
}

// Uint32 processes a fixed-width 32-bit unsigned field.
func (p *Proc) Uint32(v *uint32) error {
	if p.op == OpEncode {
		if p.err != nil {
			return p.err
		}
		p.reserve(4)
		p.buf = binary.LittleEndian.AppendUint32(p.buf, *v)
		return nil
	}
	b, err := p.take(4)
	if err != nil {
		return err
	}
	*v = binary.LittleEndian.Uint32(b)
	return nil
}

// Uint8 processes a single byte field.
func (p *Proc) Uint8(v *uint8) error {
	if p.op == OpEncode {
		if p.err != nil {
			return p.err
		}
		p.reserve(1)
		p.buf = append(p.buf, *v)
		return nil
	}
	b, err := p.take(1)
	if err != nil {
		return err
	}
	*v = b[0]
	return nil
}

// Int64 processes a signed 64-bit field.
func (p *Proc) Int64(v *int64) error {
	u := uint64(*v)
	if err := p.Uint64(&u); err != nil {
		return err
	}
	*v = int64(u)
	return nil
}

// Int processes an int field as 64 bits.
func (p *Proc) Int(v *int) error {
	i := int64(*v)
	if err := p.Int64(&i); err != nil {
		return err
	}
	*v = int(i)
	return nil
}

// Bool processes a boolean field.
func (p *Proc) Bool(v *bool) error {
	var b uint8
	if *v {
		b = 1
	}
	if err := p.Uint8(&b); err != nil {
		return err
	}
	*v = b != 0
	return nil
}

// maxBlob bounds the length of one decoded variable-length field, so a
// corrupt length is reported as such and int(n) cannot wrap on a 32-bit
// host.
const maxBlob = 1 << 30

// Bytes processes a length-prefixed byte slice. Decoding sets *v to a
// capacity-clipped view of the decoded buffer, never a copy: appending
// to it reallocates, writing through it writes the buffer (see Procable).
func (p *Proc) Bytes(v *[]byte) error {
	if p.op == OpEncode {
		return putBlob(p, *v)
	}
	b, err := p.blob()
	if err != nil {
		return err
	}
	*v = b[:len(b):len(b)]
	return nil
}

// putBlob appends one length-prefixed field to the encode buffer.
func putBlob[T ~string | ~[]byte](p *Proc, v T) error {
	n := uint32(len(v))
	if err := p.Uint32(&n); err != nil {
		return err
	}
	p.reserve(len(v))
	p.buf = append(p.buf, v...)
	return nil
}

// blob takes one length-prefixed field off the decode buffer.
func (p *Proc) blob() ([]byte, error) {
	var n uint32
	if err := p.Uint32(&n); err != nil {
		return nil, err
	}
	if n > maxBlob {
		return nil, p.fail(fmt.Errorf("%w: %d", ErrProcString, n))
	}
	return p.take(int(n))
}

// String processes a length-prefixed string. Decoding copies (a Go
// string cannot alias mutable bytes): one allocation.
func (p *Proc) String(v *string) error {
	if p.op == OpEncode {
		return putBlob(p, *v)
	}
	b, err := p.blob()
	if err != nil {
		return err
	}
	*v = string(b)
	return nil
}

// addr processes a fabric address. Decoding interns it: a process talks
// to a handful of peers, so the memory handle of every request naming
// one of them shares a single string instead of allocating its own.
func (p *Proc) addr(v *string) error {
	if p.op == OpEncode {
		return putBlob(p, *v)
	}
	b, err := p.blob()
	if err != nil {
		return err
	}
	*v = internAddr(b)
	return nil
}

// maxInternedAddrs bounds the intern table, so addresses made up by a
// corrupt or hostile peer cannot grow it without limit; past the bound
// an unknown address is an ordinary string.
const maxInternedAddrs = 1024

// internedAddrs is read on every decoded memory handle and written once
// per new peer, so readers load an immutable map and writers replace it.
var (
	internedAddrs atomic.Pointer[map[string]string]
	internMu      sync.Mutex
)

func internAddr(b []byte) string {
	if m := internedAddrs.Load(); m != nil {
		if s, ok := (*m)[string(b)]; ok {
			return s
		}
	}
	s := string(b)
	internMu.Lock()
	defer internMu.Unlock()
	var old map[string]string
	if m := internedAddrs.Load(); m != nil {
		old = *m
	}
	if _, ok := old[s]; !ok && len(old) < maxInternedAddrs {
		next := make(map[string]string, len(old)+1)
		for k, v := range old {
			next[k] = v
		}
		next[s] = s
		internedAddrs.Store(&next)
	}
	return s
}

// count decodes an element count and bounds it by what the rest of the
// buffer could hold at minElem encoded bytes per element, so a corrupt
// count fails before anything is allocated for it.
func (p *Proc) count(n *uint32, minElem int) error {
	if err := p.Uint32(n); err != nil {
		return err
	}
	if p.op == OpDecode && int(*n) > p.Remaining()/minElem {
		return p.fail(fmt.Errorf("%w: %d elements in %d bytes", ErrProcShort, *n, p.Remaining()))
	}
	return nil
}

// StringSlice processes a slice of strings.
func (p *Proc) StringSlice(v *[]string) error {
	n := uint32(len(*v))
	if err := p.count(&n, 4); err != nil {
		return err
	}
	if p.op == OpDecode {
		*v = make([]string, n)
	}
	for i := range *v {
		if err := p.String(&(*v)[i]); err != nil {
			return err
		}
	}
	return p.err
}

// BytesSlice processes a slice of byte slices. Decoding reuses the
// header array *v already has when it is large enough; the elements are
// views, as for Bytes.
func (p *Proc) BytesSlice(v *[][]byte) error {
	n := uint32(len(*v))
	if err := p.count(&n, 4); err != nil {
		return err
	}
	if p.op == OpDecode {
		if cap(*v) >= int(n) && *v != nil {
			*v = (*v)[:n]
		} else {
			*v = make([][]byte, n)
		}
	}
	for i := range *v {
		if err := p.Bytes(&(*v)[i]); err != nil {
			return err
		}
	}
	return p.err
}

// Uint64Slice processes a slice of uint64 values.
func (p *Proc) Uint64Slice(v *[]uint64) error {
	n := uint32(len(*v))
	if err := p.count(&n, 8); err != nil {
		return err
	}
	if p.op == OpDecode {
		if cap(*v) >= int(n) && *v != nil {
			*v = (*v)[:n]
		} else {
			*v = make([]uint64, n)
		}
	}
	for i := range *v {
		if err := p.Uint64(&(*v)[i]); err != nil {
			return err
		}
	}
	return p.err
}

// Encode serializes a Procable to a freshly allocated buffer. The
// cursor comes from the pool; only the exact-size result escapes.
func Encode(v Procable) ([]byte, error) {
	arena := GetArena(0)
	out, err := AppendEncode(*arena, v)
	if err != nil {
		PutArena(arena, out)
		return nil, err
	}
	buf := make([]byte, len(out))
	copy(buf, out)
	PutArena(arena, out)
	return buf, nil
}

// AppendEncode serializes a Procable by appending to dst and returns the
// extended slice. When dst has sufficient capacity the call performs no
// allocations — this is the arena-backed hot-path entry point.
func AppendEncode(dst []byte, v Procable) ([]byte, error) {
	p := acquireEncoder(dst)
	err := v.Proc(p)
	if err == nil {
		err = p.Err()
	}
	out := p.buf
	releaseProc(p)
	if err != nil {
		return dst, err
	}
	return out, nil
}

// Decode parses a Procable from bytes using a pooled cursor.
func Decode(buf []byte, v Procable) error {
	p := acquireDecoder(buf)
	err := v.Proc(p)
	if err == nil {
		err = p.Err()
	}
	releaseProc(p)
	return err
}

// RawBytes adapts a plain byte payload to Procable.
type RawBytes []byte

// Proc implements Procable.
func (r *RawBytes) Proc(p *Proc) error { return p.Bytes((*[]byte)(r)) }

// Void is an empty argument/response type.
type Void struct{}

// Proc implements Procable.
func (Void) Proc(*Proc) error { return nil }
