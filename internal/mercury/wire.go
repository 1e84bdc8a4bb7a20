package mercury

import (
	"encoding/binary"
	"fmt"

	"symbiosys/internal/na"
)

// Header flag bits.
const (
	// flagTrace marks requests carrying SYMBIOSYS breadcrumb/trace
	// metadata (instrumentation Stage 1 and above).
	flagTrace uint8 = 1 << iota
	// flagMore marks requests whose serialized input overflowed the
	// eager buffer; the remainder is fetched by internal RDMA.
	flagMore
	// flagDeadline marks requests carrying overload-control metadata:
	// an absolute completion deadline. Unlike the trace fields it is
	// control-plane state, present whenever the origin set it regardless
	// of the measurement stage.
	flagDeadline
	// flagBatch marks a vectored frame: the payload carries Count
	// sub-requests (or, on a response, Count per-entry statuses), each
	// preceded by a batchReqEntry/batchRespEntry header. Batch frames
	// never set flagMore: the coalescer's byte budget bounds them, and
	// the whole window travels in one frame.
	flagBatch
)

// Response status codes.
const (
	statusOK uint8 = iota
	statusUnknownRPC
	statusHandlerError
	// statusOverloaded reports a request shed by the target's admission
	// control before a handler executed it (safe to retry elsewhere or
	// after backoff).
	statusOverloaded
	// statusExpired reports a request rejected because its propagated
	// deadline had already passed when the target examined it.
	statusExpired
)

// Meta is the SYMBIOSYS metadata piggybacked on RPC messages: the 64-bit
// callpath breadcrumb, the globally unique request ID, the Lamport
// order counter (paper §IV-A), and the absolute deadline every layer
// consults for drop/serve decisions.
type Meta struct {
	HasTrace   bool
	Breadcrumb uint64
	RequestID  uint64
	Order      uint64
	// DeadlineNanos is the absolute request deadline (Unix nanoseconds);
	// zero means no deadline. Targets reject requests whose deadline
	// already passed instead of burning an execution stream on them.
	DeadlineNanos int64
	// BatchID groups the sub-requests of one vectored forward: every
	// sub-request's t1–t14 chain carries the same BatchID so the
	// analysis plane can stitch per-op traces back to their batch.
	// Zero means the request was not batched.
	BatchID uint64
}

// reqHeader is the request wire header.
type reqHeader struct {
	RPCID      uint32
	Cookie     uint64
	Flags      uint8
	Breadcrumb uint64
	RequestID  uint64
	Order      uint64
	// DeadlineNanos is present when flagDeadline is set.
	DeadlineNanos int64
	// TotalLen and Mem are present when flagMore is set.
	TotalLen uint32
	Mem      na.MemHandle
	// BatchID and Count are present when flagBatch is set.
	BatchID uint64
	Count   uint32
}

// Proc implements Procable.
func (r *reqHeader) Proc(p *Proc) error {
	p.Uint32(&r.RPCID)
	p.Uint64(&r.Cookie)
	p.Uint8(&r.Flags)
	if r.Flags&flagTrace != 0 {
		p.Uint64(&r.Breadcrumb)
		p.Uint64(&r.RequestID)
		p.Uint64(&r.Order)
	}
	if r.Flags&flagDeadline != 0 {
		p.Int64(&r.DeadlineNanos)
	}
	if r.Flags&flagMore != 0 {
		p.Uint32(&r.TotalLen)
		p.addr(&r.Mem.Addr)
		p.Uint64(&r.Mem.ID)
		p.Int(&r.Mem.Len)
	}
	if r.Flags&flagBatch != 0 {
		p.Uint64(&r.BatchID)
		p.Uint32(&r.Count)
	}
	return p.Err()
}

// respHeader is the response wire header.
type respHeader struct {
	Status uint8
	Flags  uint8
	Order  uint64
	// Count is present when flagBatch is set: the payload carries that
	// many batchRespEntry records.
	Count uint32
}

// Proc implements Procable.
func (r *respHeader) Proc(p *Proc) error {
	p.Uint8(&r.Status)
	p.Uint8(&r.Flags)
	if r.Flags&flagTrace != 0 {
		p.Uint64(&r.Order)
	}
	if r.Flags&flagBatch != 0 {
		p.Uint32(&r.Count)
	}
	return p.Err()
}

// batchReqEntry precedes each sub-request payload inside a vectored
// request frame. It carries the per-op slice of the Meta fields so the
// target can reconstruct one independent t1–t14 chain per logical op.
type batchReqEntry struct {
	Flags         uint8 // flagTrace | flagDeadline, per entry
	Breadcrumb    uint64
	RequestID     uint64
	Order         uint64
	DeadlineNanos int64
	Len           uint32 // sub-request payload length
}

// Proc implements Procable.
func (e *batchReqEntry) Proc(p *Proc) error {
	p.Uint8(&e.Flags)
	if e.Flags&flagTrace != 0 {
		p.Uint64(&e.Breadcrumb)
		p.Uint64(&e.RequestID)
		p.Uint64(&e.Order)
	}
	if e.Flags&flagDeadline != 0 {
		p.Int64(&e.DeadlineNanos)
	}
	p.Uint32(&e.Len)
	return p.Err()
}

// next decodes the entry header p stands at and returns the sub-request
// payload behind it, a view of the frame.
func (e *batchReqEntry) next(p *Proc) ([]byte, error) {
	if err := e.Proc(p); err != nil {
		return nil, err
	}
	return p.take(int(e.Len))
}

// batchRespEntry precedes each sub-response payload inside a vectored
// response frame: per-entry status plus the target-side Lamport order.
type batchRespEntry struct {
	Status uint8
	Flags  uint8 // flagTrace
	Order  uint64
	Len    uint32
}

// Proc implements Procable.
func (e *batchRespEntry) Proc(p *Proc) error {
	p.Uint8(&e.Status)
	p.Uint8(&e.Flags)
	if e.Flags&flagTrace != 0 {
		p.Uint64(&e.Order)
	}
	p.Uint32(&e.Len)
	return p.Err()
}

// next decodes the entry header p stands at and returns the sub-response
// payload behind it, a view of the frame.
func (e *batchRespEntry) next(p *Proc) ([]byte, error) {
	if err := e.Proc(p); err != nil {
		return nil, err
	}
	return p.take(int(e.Len))
}

// pack and unpack exist once per header type, each calling the type's
// own Proc on a pooled cursor: a header passed as a Procable interface
// would escape to the heap on every frame.

// pack builds the request frame [u32 hdrLen][header][payload] in a
// pooled frame, copying a payload that was encoded elsewhere: a batch
// builder's, which must outlive the send for retries, or the eager head
// of an overflowing request. A single request's payload is encoded in
// place instead (see Handle.Forward).
func (r *reqHeader) pack(payload []byte) []byte {
	p := beginFrame(4 + reqHeaderMax + len(payload))
	r.Proc(p)
	p.endHeader()
	p.raw(payload)
	return p.endFrame()
}

// Largest encoded headers, for sizing a frame whose payload length is
// known: every optional request field present with a fabric address of
// ordinary length; every optional response field present. An
// underestimate costs one move to the next frame class, nothing else.
const (
	reqHeaderMax  = 13 + 24 + 8 + (4 + 4 + 64 + 16) + 12
	respHeaderMax = 2 + 8 + 4
)

// unpack decodes a request frame's header and returns the payload view.
func (r *reqHeader) unpack(frame []byte) (payload []byte, err error) {
	p, payload, err := splitFrame(frame)
	if err == nil {
		err = r.Proc(p)
		releaseProc(p)
	}
	return payload, err
}

// unpack decodes a response frame's header and returns the payload view.
func (r *respHeader) unpack(frame []byte) (payload []byte, err error) {
	p, payload, err := splitFrame(frame)
	if err == nil {
		err = r.Proc(p)
		releaseProc(p)
	}
	return payload, err
}

// splitFrame returns a pooled decoder over the frame's header bytes and
// the payload view behind them.
func splitFrame(frame []byte) (hdr *Proc, payload []byte, err error) {
	if len(frame) < 4 {
		return nil, nil, fmt.Errorf("%w: frame too short", ErrProcShort)
	}
	hl := int(binary.LittleEndian.Uint32(frame))
	if 4+hl > len(frame) {
		return nil, nil, fmt.Errorf("%w: header length %d exceeds frame", ErrProcShort, hl)
	}
	return acquireDecoder(frame[4 : 4+hl]), frame[4+hl:], nil
}
