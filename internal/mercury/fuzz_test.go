package mercury

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
	"unsafe"
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
		if !raceEnabled && allocs > 4 {
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
