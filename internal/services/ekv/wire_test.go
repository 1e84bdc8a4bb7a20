package ekv

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"

	"symbiosys/internal/mercury"
)

// wireTypes are the nine messages of wire.go, each with the offset of
// its Bool byte (-1 for none): the one field a decoder reads laxly (any
// non-zero byte is true) and an encoder writes canonically (1). The two
// get replies copy their value out of the frame; the rest decode views.
var wireTypes = []struct {
	name   string
	fresh  func() mercury.Procable
	boolAt int
	copies bool
}{
	{"putArgs", func() mercury.Procable { return new(putArgs) }, -1, false},
	{"opResp", func() mercury.Procable { return new(opResp) }, -1, false},
	{"getArgs", func() mercury.Procable { return new(getArgs) }, -1, false},
	{"getResp", func() mercury.Procable { return new(getResp) }, 1, true},
	{"peerGetArgs", func() mercury.Procable { return new(peerGetArgs) }, -1, false},
	{"peerGetResp", func() mercury.Procable { return new(peerGetResp) }, 0, true},
	{"migratePushArgs", func() mercury.Procable { return new(migratePushArgs) }, -1, false},
	{"packedPairs", func() mercury.Procable { return new(packedPairs) }, -1, false},
	{"migrateDoneArgs", func() mercury.Procable { return new(migrateDoneArgs) }, -1, false},
}

// byteFields collects every []byte a decoded message holds.
func byteFields(v reflect.Value, out [][]byte) [][]byte {
	switch v.Kind() {
	case reflect.Pointer:
		return byteFields(v.Elem(), out)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = byteFields(v.Field(i), out)
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return append(out, v.Bytes())
		}
		for i := 0; i < v.Len(); i++ {
			out = byteFields(v.Index(i), out)
		}
	}
	return out
}

// FuzzEKVWire feeds arbitrary bytes to every message decoder of the
// elastic KV service, whose frames arrive from clients and from peer
// nodes: a decoder must not panic, what it accepts must be views clipped
// inside the frame (for a reply, copies outside it: the frame is recycled
// before Forward returns), and must encode back to the bytes it consumed
// (a lax Bool byte aside) and decode again to the same message. Seeds:
// testdata/fuzz/FuzzEKVWire.
func FuzzEKVWire(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
		for _, wt := range wireTypes {
			got := wt.fresh()
			if mercury.Decode(data, got) != nil {
				continue
			}
			for _, v := range byteFields(reflect.ValueOf(got), nil) {
				p := uintptr(unsafe.Pointer(unsafe.SliceData(v)))
				inside := p >= lo && p+uintptr(len(v)) <= lo+uintptr(len(data))
				switch {
				case len(v) == 0:
				case wt.copies && p < lo+uintptr(len(data)) && p+uintptr(len(v)) > lo:
					t.Fatalf("%s: decoded field %q shares memory with the frame", wt.name, v)
				case !wt.copies && (cap(v) != len(v) || !inside):
					t.Fatalf("%s: decoded field %q is not a clipped view of the frame", wt.name, v)
				}
			}
			wire, err := mercury.Encode(got)
			if err != nil || len(wire) > len(data) {
				t.Fatalf("%s: re-encode = %x, %v; want a prefix of %x", wt.name, wire, err, data)
			}
			consumed := append([]byte(nil), data[:len(wire)]...)
			if wt.boolAt >= 0 && consumed[wt.boolAt] != 0 {
				consumed[wt.boolAt] = 1
			}
			if !bytes.Equal(wire, consumed) {
				t.Fatalf("%s: re-encode = %x; want the consumed prefix %x", wt.name, wire, consumed)
			}
			again := wt.fresh()
			if err := mercury.Decode(wire, again); err != nil || !reflect.DeepEqual(got, again) {
				t.Fatalf("%s: second decode = %+v, %v; want %+v", wt.name, again, err, got)
			}
		}
	})
}
