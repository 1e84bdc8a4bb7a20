package mercury

import (
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"unsafe"

	"symbiosys/internal/na"
)

// fuzzArgs has one field of every kind that decodes to a view or to a
// counted slice, plus a nested Procable.
type fuzzArgs struct {
	ID   uint32
	Key  []byte
	Name string
	Vals [][]byte
	Nums []uint64
	Bulk Bulk
}

func (a *fuzzArgs) Proc(p *Proc) error {
	p.Uint32(&a.ID)
	p.Bytes(&a.Key)
	p.String(&a.Name)
	p.BytesSlice(&a.Vals)
	p.Uint64Slice(&a.Nums)
	a.Bulk.Proc(p)
	return p.Err()
}

// isViewOf reports whether v is a capacity-clipped range of buf.
func isViewOf(v, buf []byte) bool {
	if len(v) == 0 {
		return true
	}
	if len(buf) == 0 || cap(v) != len(v) {
		return false
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(v)))
	return p >= lo && p+uintptr(len(v)) <= lo+uintptr(len(buf))
}

// FuzzProcDecode feeds arbitrary bytes to the decoder. Whatever it
// accepts must consist of views inside the input and must encode back
// to exactly the bytes it consumed; whatever it rejects must not panic.
// The committed corpus (testdata/fuzz/FuzzProcDecode) holds valid
// encodings and corrupt-count frames; the golden wire frames are added
// here.
func FuzzProcDecode(f *testing.F) {
	for _, g := range goldenReqFrames {
		b, _ := hex.DecodeString(g.frame)
		f.Add(b)
	}
	for _, g := range goldenRespFrames {
		b, _ := hex.DecodeString(g.frame)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var rh reqHeader
		rh.unpack(data)
		var ph respHeader
		ph.unpack(data)
		parseBatchResp(data, 3)

		var got fuzzArgs
		p := acquireDecoder(data)
		err := got.Proc(p)
		used := len(data) - p.Remaining()
		releaseProc(p)
		if err != nil {
			return
		}
		for _, v := range append([][]byte{got.Key}, got.Vals...) {
			if !isViewOf(v, data) {
				t.Fatalf("decoded field %q is not a clipped view of the input", v)
			}
		}
		wire, err := Encode(&got)
		if err != nil || !bytes.Equal(wire, data[:used]) {
			t.Fatalf("re-encode = %x, %v; want the consumed prefix %x", wire, err, data[:used])
		}
		var again fuzzArgs
		if err := Decode(wire, &again); err != nil || !reflect.DeepEqual(got, again) {
			t.Fatalf("second decode = %+v, %v; want %+v", again, err, got)
		}
	})
}

// TestCorruptCountFailsBeforeAllocating pins the decoder bounds fix: an
// element count the rest of the buffer cannot hold is ErrProcShort, and
// nothing is allocated for it.
func TestCorruptCountFailsBeforeAllocating(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0x3f, 1, 2, 3, 4, 5, 6, 7, 8} // count 2^30-1, 8 bytes follow
	cases := map[string]func(p *Proc) error{
		"BytesSlice":  func(p *Proc) error { var v [][]byte; return p.BytesSlice(&v) },
		"StringSlice": func(p *Proc) error { var v []string; return p.StringSlice(&v) },
		"Uint64Slice": func(p *Proc) error { var v []uint64; return p.Uint64Slice(&v) },
	}
	for name, decode := range cases {
		var err error
		allocs := testing.AllocsPerRun(10, func() {
			p := acquireDecoder(huge)
			err = decode(p)
			releaseProc(p)
		})
		if !errors.Is(err, ErrProcShort) {
			t.Errorf("%s: err = %v, want ErrProcShort", name, err)
		}
		// The error value itself is the only thing a rejection may cost.
		if !RaceEnabled && allocs > 4 {
			t.Errorf("%s: rejecting a corrupt count allocated %.0f objects", name, allocs)
		}
	}
	// The largest count that fits is still accepted.
	ok := []byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	var v [][]byte
	if err := Decode(ok, (*bytesSliceOnly)(&v)); err != nil || len(v) != 2 {
		t.Fatalf("two empty elements in eight bytes: %v, %v", v, err)
	}
}

type bytesSliceOnly [][]byte

func (b *bytesSliceOnly) Proc(p *Proc) error { return p.BytesSlice((*[][]byte)(b)) }

// TestDecodeHandsOutViews states the ownership rule directly: decoded
// byte slices alias the decoded buffer and cannot grow into it.
func TestDecodeHandsOutViews(t *testing.T) {
	in := fuzzArgs{ID: 1, Key: []byte("key"), Name: "n", Vals: [][]byte{[]byte("a"), nil, []byte("ccc")}, Nums: []uint64{7}}
	wire, err := Encode(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out fuzzArgs
	if err := Decode(wire, &out); err != nil {
		t.Fatal(err)
	}
	if !isViewOf(out.Key, wire) || !isViewOf(out.Vals[0], wire) || !isViewOf(out.Vals[2], wire) {
		t.Fatal("decoded slices are not views of the wire buffer")
	}
	before := append([]byte(nil), wire...)
	_ = append(out.Key, "overrun"...)
	_ = append(out.Vals[0], "overrun"...)
	if !bytes.Equal(wire, before) {
		t.Fatal("appending to a decoded view wrote into the buffer behind it")
	}
	wire[bytes.Index(wire, []byte("key"))] = 'K'
	if string(out.Key) != "Key" {
		t.Fatalf("Key = %q: not an alias of the buffer", out.Key)
	}
}

// pack builds the response frame [u32 hdrLen][header][payload]: the
// reference encoder of the golden frames and the fuzz round trip, which
// the target's own responses never need.
func (r *respHeader) pack(payload []byte) []byte {
	p := beginFrame(4 + respHeaderMax + len(payload))
	r.Proc(p)
	p.endHeader()
	p.raw(payload)
	return p.endFrame()
}

var updateSeeds = flag.Bool("update", false, "rewrite testdata/fuzz/FuzzFrameHeaders from frameSeeds")

// frameSeeds is the committed seed corpus of FuzzFrameHeaders
// (TestFrameSeedCorpusCurrent keeps the files equal to it): the golden
// frames of TestGoldenFramesStable, one request for the fuzz target's
// RPC, and one vectored frame of each kind whose entries carry no
// metadata, the trace fields and a deadline.
func frameSeeds(t testing.TB) map[string][]byte {
	t.Helper()
	seeds := map[string][]byte{}
	for i, g := range goldenReqFrames {
		seeds[fmt.Sprintf("golden-request-%d", i)], _ = hex.DecodeString(g.frame)
	}
	for i, g := range goldenRespFrames {
		seeds[fmt.Sprintf("golden-response-%d", i)], _ = hex.DecodeString(g.frame)
	}
	encode := func(v Procable) []byte {
		b, err := Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	rpc := hashRPC("fuzz_rpc")
	single := reqHeader{RPCID: rpc, Cookie: 10}
	seeds["single-request"] = single.pack(encode(&fuzzArgs{ID: 7, Key: []byte("key"), Name: "name", Vals: [][]byte{[]byte("a"), nil}, Nums: []uint64{1, 2}}))

	var reqs []byte
	for _, e := range []struct {
		ent batchReqEntry
		in  fuzzArgs
	}{
		{batchReqEntry{}, fuzzArgs{ID: 1, Key: []byte("k1"), Name: "n"}},
		{batchReqEntry{Flags: flagTrace, Breadcrumb: 3, RequestID: 4, Order: 5}, fuzzArgs{ID: 2, Vals: [][]byte{[]byte("v")}}},
		{batchReqEntry{Flags: flagDeadline, DeadlineNanos: 77}, fuzzArgs{ID: 3, Nums: []uint64{9}}},
	} {
		body := encode(&e.in)
		e.ent.Len = uint32(len(body))
		reqs = append(append(reqs, encode(&e.ent)...), body...)
	}
	vreq := reqHeader{RPCID: rpc, Cookie: 9, Flags: flagBatch, BatchID: 6, Count: 3}
	seeds["vectored-request"] = vreq.pack(reqs)

	var resps []byte
	for _, e := range []struct {
		ent  batchRespEntry
		body string
	}{
		{batchRespEntry{Status: statusOK}, ""},
		{batchRespEntry{Status: statusHandlerError, Flags: flagTrace, Order: 8}, "\x01"},
		{batchRespEntry{Status: statusExpired}, "\x02\x02"},
	} {
		e.ent.Len = uint32(len(e.body))
		resps = append(append(resps, encode(&e.ent)...), e.body...)
	}
	vresp := respHeader{Flags: flagBatch, Count: 3}
	seeds["vectored-response"] = vresp.pack(resps)
	return seeds
}

// TestFrameSeedCorpusCurrent keeps the committed corpus of
// FuzzFrameHeaders equal to what frameSeeds builds, so a wire change
// cannot leave stale seeds behind. `go test ./internal/mercury -run
// TestFrameSeedCorpusCurrent -update` rewrites it.
func TestFrameSeedCorpusCurrent(t *testing.T) {
	dir := filepath.Join("testdata/fuzz", "FuzzFrameHeaders")
	seeds := frameSeeds(t)
	if *updateSeeds {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range seeds {
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		path := filepath.Join(dir, name)
		if *updateSeeds {
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, err := os.ReadFile(path); err != nil {
			t.Fatalf("%v (run with -update)", err)
		} else if string(got) != want {
			t.Errorf("%s is stale (run with -update)", path)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, ok := seeds[e.Name()]; !ok {
			t.Errorf("%s/%s has no entry in frameSeeds (run with -update)", dir, e.Name())
		}
	}
}

// FuzzFrameHeaders feeds arbitrary bytes to the three frame parsers —
// request header, response header, and the entries of a vectored frame
// of either kind — and to a live target. Whatever a parser accepts must
// pack again, through the same reserve-and-patch path Forward and
// Respond use, into a frame that parses to the same header and payload,
// and into the very same bytes when the input had no slack in it;
// whatever it rejects must not panic or read past the frame (the input
// is clipped to its length, so an overrun is a bounds failure). The
// committed corpus is frameSeeds.
func FuzzFrameHeaders(f *testing.F) {
	fab := na.NewFabric(na.DefaultConfig())
	ep, err := fab.NewEndpoint("fuzz", "target")
	if err != nil {
		f.Fatal(err)
	}
	target := NewClass(ep, Config{})
	if err := target.Register("fuzz_rpc", func(h *Handle) {
		var in fuzzArgs
		if h.GetInput(&in) == nil {
			h.Respond(&in, Meta{}, nil)
		} else {
			h.RespondError("decode", Meta{}, nil)
		}
		h.Destroy()
	}); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		frame := append(make([]byte, 0, len(data)), data...)

		var rq reqHeader
		if payload, err := rq.unpack(frame); err == nil {
			again := rq.pack(payload)
			var got reqHeader
			rest, err := got.unpack(again)
			if err != nil || got != rq || !bytes.Equal(rest, payload) {
				t.Fatalf("request header %+v repacks to %+v, %v", rq, got, err)
			}
			if len(again) == len(frame) && !bytes.Equal(again, frame) {
				t.Fatalf("request frame %x repacks to %x", frame, again)
			}
			putFrame(again)
			if rq.Flags&flagBatch != 0 {
				var ent batchReqEntry
				repackEntries(t, payload, int(rq.Count), func(p *Proc) ([]byte, error) { return ent.next(p) }, &ent)
			}
		}
		var rs respHeader
		if payload, err := rs.unpack(frame); err == nil {
			again := rs.pack(payload)
			var got respHeader
			rest, err := got.unpack(again)
			if err != nil || got != rs || !bytes.Equal(rest, payload) {
				t.Fatalf("response header %+v repacks to %+v, %v", rs, got, err)
			}
			if len(again) == len(frame) && !bytes.Equal(again, frame) {
				t.Fatalf("response frame %x repacks to %x", frame, again)
			}
			putFrame(again)
			if rs.Flags&flagBatch != 0 {
				var ent batchRespEntry
				repackEntries(t, payload, int(rs.Count), func(p *Proc) ([]byte, error) { return ent.next(p) }, &ent)
				if ents, err := parseBatchResp(payload, int(rs.Count)); err == nil && len(ents) != int(rs.Count) {
					t.Fatalf("%d entries parsed, header says %d", len(ents), rs.Count)
				}
			}
		}

		// The same bytes as a request arriving at a target, which owns
		// (and recycles) the frame it is given. An overflowing request
		// allocates what its header claims, so those stay small here.
		if rq.Flags&flagMore != 0 && rq.TotalLen > 1<<16 {
			return
		}
		target.handleRequest(&na.Message{From: "fuzz/origin", Data: append([]byte(nil), data...)})
		for target.Progress(0)+target.Trigger(64) > 0 {
		}
	})
}

// repackEntries walks count vectored-frame entries with next and checks
// that each entry header and body encode back to the bytes they came
// from.
func repackEntries(t *testing.T, payload []byte, count int, next func(*Proc) ([]byte, error), ent Procable) {
	t.Helper()
	p := acquireDecoder(payload)
	defer releaseProc(p)
	for i := 0; i < count; i++ {
		start := len(payload) - p.Remaining()
		body, err := next(p)
		if err != nil {
			return
		}
		wire, err := AppendEncode(nil, ent)
		if err != nil {
			t.Fatalf("entry %d: re-encode: %v", i, err)
		}
		wire = append(wire, body...)
		if end := len(payload) - p.Remaining(); !bytes.Equal(wire, payload[start:end]) {
			t.Fatalf("entry %d: %x re-encodes to %x", i, payload[start:end], wire)
		}
	}
}
