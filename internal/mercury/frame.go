package mercury

import (
	"encoding/binary"
	"math/bits"
	"sync"
	"unsafe"
)

// A frame is the buffer of one wire message: [u32 hdrLen][header]
// [payload]. The sender encodes header and payload straight into it and
// hands it to the fabric, which delivers the same slice to the receiver;
// who holds it from then on, and until when, is in Handle's comment.
//
// Frames come in power-of-two size classes so that a recycled one is
// recognised by its capacity alone: the fabric carries a plain []byte,
// and whatever arrives with a class capacity is poolable — a pooled
// frame, or the private copy the fault plane made of one. A message
// larger than the largest class gets an exact-size buffer the garbage
// collector reclaims.
const (
	frameMinShift = 9  // 512 B: single-op requests and responses
	frameMaxShift = 18 // 256 KiB: a coalescer window at its byte budget
)

// framePools hold each frame as the pointer to its first byte: a pointer
// in an interface allocates nothing, where a slice header would, and the
// class a pool serves says how long the array behind the pointer is.
var framePools [frameMaxShift - frameMinShift + 1]sync.Pool

// getFrame returns an empty frame with room for at least n bytes.
func getFrame(n int) []byte {
	shift := max(bits.Len(uint(max(n, 1)-1)), frameMinShift)
	if shift > frameMaxShift {
		return make([]byte, 0, n)
	}
	if p, ok := framePools[shift-frameMinShift].Get().(*byte); ok {
		return unsafe.Slice(p, 1<<shift)[:0]
	}
	return make([]byte, 0, 1<<shift)
}

// putFrame recycles a frame nothing references any more. In race builds
// it is overwritten first, so a view that outlived its rule reads 0xDB
// instead of the bytes it happened to find.
func putFrame(b []byte) {
	if RaceEnabled {
		poison(b[:cap(b)])
	}
	shift := bits.TrailingZeros(uint(cap(b)))
	if cap(b) != 1<<shift || shift < frameMinShift || shift > frameMaxShift {
		return
	}
	framePools[shift-frameMinShift].Put(unsafe.SliceData(b))
}

func poison(b []byte) {
	for i := range b {
		b[i] = 0xDB
	}
}

// beginFrame returns an encoder over an empty pooled frame with room
// for at least n bytes, its header-length word reserved. The caller
// encodes the header, calls endHeader, encodes the payload, and takes the
// frame with endFrame.
func beginFrame(n int) *Proc {
	p := acquireEncoder(getFrame(n))
	p.framed = true
	p.buf = append(p.buf, 0, 0, 0, 0)
	return p
}

// endHeader records that everything encoded since beginFrame was the
// header.
func (p *Proc) endHeader() {
	binary.LittleEndian.PutUint32(p.buf, uint32(len(p.buf)-4))
}

// raw appends bytes that are already encoded.
func (p *Proc) raw(b []byte) {
	p.reserve(len(b))
	p.buf = append(p.buf, b...)
}

// endFrame releases the encoder and returns the finished frame.
func (p *Proc) endFrame() []byte {
	frame := p.buf
	releaseProc(p)
	return frame
}

// dropFrame abandons a frame whose encoding failed.
func (p *Proc) dropFrame() {
	putFrame(p.buf)
	releaseProc(p)
}
