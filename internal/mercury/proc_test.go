package mercury

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"symbiosys/internal/na"
)

// everything exercises all field kinds in one Procable.
type everything struct {
	U8  uint8
	U32 uint32
	U64 uint64
	I64 int64
	I   int
	B   bool
	S   string
	Bs  []byte
	Ss  []string
	Bss [][]byte
	Us  []uint64
}

func (e *everything) Proc(p *Proc) error {
	p.Uint8(&e.U8)
	p.Uint32(&e.U32)
	p.Uint64(&e.U64)
	p.Int64(&e.I64)
	p.Int(&e.I)
	p.Bool(&e.B)
	p.String(&e.S)
	p.Bytes(&e.Bs)
	p.StringSlice(&e.Ss)
	p.BytesSlice(&e.Bss)
	p.Uint64Slice(&e.Us)
	return p.Err()
}

func TestProcRoundTrip(t *testing.T) {
	in := everything{
		U8: 7, U32: 70000, U64: 1 << 40,
		I64: -12345, I: -99, B: true,
		S:  "hello",
		Bs: []byte{1, 2, 3},
		Ss: []string{"a", "", "ccc"},
		Bss: [][]byte{
			{9}, {}, {8, 7},
		},
		Us: []uint64{0, 1, math.MaxUint64},
	}
	buf, err := Encode(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out everything
	if err := Decode(buf, &out); err != nil {
		t.Fatal(err)
	}
	// Decode materializes empty slices as non-nil; normalize for compare.
	if !reflect.DeepEqual(in.Ss, out.Ss) || in.S != out.S ||
		!bytes.Equal(in.Bs, out.Bs) || in.U64 != out.U64 ||
		in.I64 != out.I64 || in.I != out.I || in.B != out.B ||
		in.U8 != out.U8 ||
		in.U32 != out.U32 || !reflect.DeepEqual(in.Us, out.Us) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
	for i := range in.Bss {
		if !bytes.Equal(in.Bss[i], out.Bss[i]) {
			t.Fatalf("Bss[%d] mismatch", i)
		}
	}
}

func TestProcRoundTripProperty(t *testing.T) {
	prop := func(u64 uint64, i64 int64, b bool, s string, bs []byte, ss []string) bool {
		in := everything{U64: u64, I64: i64, B: b, S: s, Bs: bs, Ss: ss}
		buf, err := Encode(&in)
		if err != nil {
			return false
		}
		var out everything
		if err := Decode(buf, &out); err != nil {
			return false
		}
		if out.U64 != u64 || out.I64 != i64 || out.B != b || out.S != s {
			return false
		}
		if !bytes.Equal(out.Bs, bs) {
			return false
		}
		if len(out.Ss) != len(ss) {
			return false
		}
		for i := range ss {
			if out.Ss[i] != ss[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestProcShortBuffer(t *testing.T) {
	var v everything
	err := Decode([]byte{1, 2}, &v)
	if !errors.Is(err, ErrProcShort) {
		t.Fatalf("err = %v, want ErrProcShort", err)
	}
}

func TestProcCorruptLength(t *testing.T) {
	// A string length far beyond the buffer must fail cleanly.
	n := uint32(math.MaxUint32)
	buf, err := AppendEncode(nil, (*uint32Only)(&n))
	if err != nil {
		t.Fatal(err)
	}
	var s string
	if err := Decode(buf, &stringOnly{&s}); err == nil {
		t.Fatal("corrupt length accepted")
	}
}

type stringOnly struct{ s *string }

func (x *stringOnly) Proc(p *Proc) error { return p.String(x.s) }

type uint32Only uint32

func (x *uint32Only) Proc(p *Proc) error { return p.Uint32((*uint32)(x)) }

func TestProcErrorSticky(t *testing.T) {
	p := acquireDecoder(nil)
	defer releaseProc(p)
	var u uint64
	if err := p.Uint64(&u); err == nil {
		t.Fatal("expected error")
	}
	var s string
	if err := p.String(&s); err == nil {
		t.Fatal("error did not stick")
	}
	if p.Err() == nil {
		t.Fatal("Err() nil after failure")
	}
}

func TestFramePackUnpack(t *testing.T) {
	hdr := reqHeader{
		RPCID: 42, Cookie: 99,
		Flags:      flagTrace | flagMore,
		Breadcrumb: 0xABCD, RequestID: 7, Order: 3,
		TotalLen: 100,
	}
	hdr.Mem.Addr = "node0/x"
	hdr.Mem.ID = 5
	hdr.Mem.Len = 60
	payload := []byte("payload-bytes")
	frame := hdr.pack(payload)
	var got reqHeader
	rest, err := got.unpack(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rest, payload) {
		t.Fatalf("payload = %q", rest)
	}
	if got != hdr {
		t.Fatalf("header = %+v, want %+v", got, hdr)
	}
}

func TestFrameUnpackErrors(t *testing.T) {
	var hdr respHeader
	if _, err := hdr.unpack([]byte{1, 2}); err == nil {
		t.Fatal("short frame accepted")
	}
	// Header length pointing past the end.
	bad := []byte{255, 0, 0, 0, 1}
	if _, err := hdr.unpack(bad); err == nil {
		t.Fatal("oversized header length accepted")
	}
}

func TestRespHeaderTraceOptional(t *testing.T) {
	h := respHeader{Status: statusOK}
	buf, _ := Encode(&h)
	withTrace := respHeader{Status: statusOK, Flags: flagTrace, Order: 9}
	buf2, _ := Encode(&withTrace)
	if len(buf2) <= len(buf) {
		t.Fatal("trace fields not serialized")
	}
	var out respHeader
	if err := Decode(buf2, &out); err != nil || out.Order != 9 {
		t.Fatalf("decode: %+v %v", out, err)
	}
}

func TestRawBytesAndVoid(t *testing.T) {
	r := RawBytes("abc")
	buf, err := Encode(&r)
	if err != nil {
		t.Fatal(err)
	}
	var out RawBytes
	if err := Decode(buf, &out); err != nil || string(out) != "abc" {
		t.Fatalf("RawBytes: %q %v", out, err)
	}
	if b, err := Encode(Void{}); err != nil || len(b) != 0 {
		t.Fatalf("Void: %v %v", b, err)
	}
}

func TestDecodeArbitraryBytesNeverPanics(t *testing.T) {
	// Wire-facing decoders must reject garbage gracefully.
	prop := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		var e everything
		Decode(data, &e)
		var rh reqHeader
		rh.unpack(data)
		var ph respHeader
		ph.unpack(data)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderRoundTripProperty(t *testing.T) {
	prop := func(rpcID uint32, cookie, bcrumb, reqID, order uint64, trace bool, payload []byte) bool {
		hdr := reqHeader{RPCID: rpcID, Cookie: cookie}
		if trace {
			hdr.Flags |= flagTrace
			hdr.Breadcrumb = bcrumb
			hdr.RequestID = reqID
			hdr.Order = order
		}
		frame := hdr.pack(payload)
		var got reqHeader
		rest, err := got.unpack(frame)
		if err != nil {
			return false
		}
		return got == hdr && bytes.Equal(rest, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Golden wire frames: the header codec may change, the bytes it writes
// for these headers may not.
var goldenReqFrames = []struct {
	hdr   reqHeader
	frame string
}{
	{reqHeader{RPCID: 0x11223344, Cookie: 0x0102030405060708},
		"0d000000443322110807060504030201007061796c6f6164"},
	{reqHeader{RPCID: 42, Cookie: 99, Flags: flagTrace, Breadcrumb: 0xABCDEF0123456789, RequestID: 7<<32 | 5, Order: 3},
		"250000002a0000006300000000000000018967452301efcdab050000000700000003000000000000007061796c6f6164"},
	{reqHeader{RPCID: 42, Cookie: 100, Flags: flagDeadline, DeadlineNanos: 1790000000123456789},
		"150000002a00000064000000000000000415cd4e2b845bd7187061796c6f6164"},
	{reqHeader{RPCID: 42, Cookie: 101, Flags: flagTrace | flagDeadline | flagMore, Breadcrumb: 1, RequestID: 2, Order: 3,
		DeadlineNanos: -5, TotalLen: 8192, Mem: na.MemHandle{Addr: "client-node0/loader", ID: 77, Len: 4096}},
		"580000002a000000650000000000000007010000000000000002000000000000000300000000000000fbffffffffffffff0020000013000000636c69656e742d6e6f6465302f6c6f616465724d0000000000000000100000000000007061796c6f6164"},
	{reqHeader{RPCID: 7, Cookie: 102, Flags: flagBatch, BatchID: 0xFEEDFACE, Count: 64},
		"1900000007000000660000000000000008cefaedfe00000000400000007061796c6f6164"},
}

var goldenRespFrames = []struct {
	hdr   respHeader
	frame string
}{
	{respHeader{Status: statusOK}, "0200000000006f7574"},
	{respHeader{Status: statusHandlerError, Flags: flagTrace, Order: 0x1122334455667788}, "0a000000020188776655443322116f7574"},
	{respHeader{Status: statusOK, Flags: flagBatch, Count: 3}, "060000000008030000006f7574"},
	{respHeader{Status: statusExpired, Flags: flagTrace | flagBatch, Order: 9, Count: 1}, "0e00000004090900000000000000010000006f7574"},
}

func TestGoldenFramesStable(t *testing.T) {
	for i, g := range goldenReqFrames {
		want, _ := hex.DecodeString(g.frame)
		if frame := g.hdr.pack([]byte("payload")); !bytes.Equal(frame, want) {
			t.Errorf("request %d: pack = %x; want %s", i, frame, g.frame)
		}
		var got reqHeader
		rest, err := got.unpack(want)
		if err != nil || got != g.hdr || string(rest) != "payload" {
			t.Errorf("request %d: unpack = %+v, %q, %v; want %+v", i, got, rest, err, g.hdr)
		}
	}
	for i, g := range goldenRespFrames {
		want, _ := hex.DecodeString(g.frame)
		if frame := g.hdr.pack([]byte("out")); !bytes.Equal(frame, want) {
			t.Errorf("response %d: pack = %x; want %s", i, frame, g.frame)
		}
		var got respHeader
		rest, err := got.unpack(want)
		if err != nil || got != g.hdr || string(rest) != "out" {
			t.Errorf("response %d: unpack = %+v, %q, %v; want %+v", i, got, rest, err, g.hdr)
		}
	}
}

// TestHeaderCodecAllocFree pins what the per-type pack/unpack buys: the
// header stays on the stack and the frame comes from its pool, so
// building a frame that is recycled after use, and parsing one, cost
// nothing.
func TestHeaderCodecAllocFree(t *testing.T) {
	if RaceEnabled {
		t.Skip("pooled cursors are dropped at random under the race detector")
	}
	hdr := reqHeader{RPCID: 42, Cookie: 99, Flags: flagTrace | flagDeadline, Breadcrumb: 1, RequestID: 2, Order: 3, DeadlineNanos: 4}
	payload := make([]byte, 256)
	frame := hdr.pack(payload)
	if n := testing.AllocsPerRun(200, func() {
		h := hdr
		h.Cookie++
		putFrame(h.pack(payload))
	}); n != 0 {
		t.Errorf("reqHeader.pack allocates %.1f objects, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		var got reqHeader
		if _, err := got.unpack(frame); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("reqHeader.unpack allocates %.1f objects, want 0", n)
	}
	resp := respHeader{Status: statusOK, Flags: flagTrace, Order: 5}
	rframe := resp.pack(payload)
	if n := testing.AllocsPerRun(200, func() {
		r := resp
		r.Order++
		var got respHeader
		putFrame(r.pack(payload))
		if _, err := got.unpack(rframe); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("respHeader pack+unpack allocates %.1f objects, want 0", n)
	}
}
