package mercury

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"symbiosys/internal/na"
)

// This file implements the vectored wire frame (ISSUE 6 tentpole, layer
// 1): one request frame carrying N sub-requests, answered by one
// response frame carrying N per-entry statuses. The margo coalescer
// builds batches with BatchBuilder, forwards them with ForwardBatch,
// and reads per-entry results through the BatchEntry* accessors. On the
// target every sub-request becomes an ordinary Handle delivered through
// the normal handler path — admission control, deadline checks, and the
// per-op t5–t10 instrumentation all apply per entry — and the shared
// batchTarget fans the N responses back into a single reply frame.

// BatchBuilder accumulates encoded sub-requests for one vectored
// forward. Builders are pooled; the internal buffer grows in place and
// is retained across uses, so steady-state Add calls do not allocate.
type BatchBuilder struct {
	buf   []byte
	count int
	// ent is the scratch entry header reused by Add: passing a local
	// through the Procable interface would heap-escape it per call.
	ent batchReqEntry
}

var batchBuilderPool = sync.Pool{New: func() any { return new(BatchBuilder) }}

// AcquireBatch returns an empty pooled builder.
func AcquireBatch() *BatchBuilder {
	return batchBuilderPool.Get().(*BatchBuilder)
}

// Release resets the builder and returns it to the pool. The builder
// must not be referenced afterwards; callers release only after the
// batch completed (or will never be retried), because retries re-send
// the builder's bytes.
func (b *BatchBuilder) Release() {
	if cap(b.buf) > arenaMaxRetain {
		b.buf = nil
	}
	b.Reset()
	batchBuilderPool.Put(b)
}

// Reset clears the builder for reuse without returning it to the pool.
func (b *BatchBuilder) Reset() {
	b.buf = b.buf[:0]
	b.count = 0
}

// Count reports the number of sub-requests added.
func (b *BatchBuilder) Count() int { return b.count }

// Bytes reports the encoded payload size so far.
func (b *BatchBuilder) Bytes() int { return len(b.buf) }

// Add encodes one sub-request with its per-op metadata. The entry
// header's length field is backfilled after the payload is encoded, so
// the input is serialized exactly once, directly into the builder.
func (b *BatchBuilder) Add(in Procable, meta Meta) error {
	b.ent = batchReqEntry{}
	if meta.HasTrace {
		b.ent.Flags |= flagTrace
		b.ent.Breadcrumb = meta.Breadcrumb
		b.ent.RequestID = meta.RequestID
		b.ent.Order = meta.Order
	}
	if meta.DeadlineNanos != 0 {
		b.ent.Flags |= flagDeadline
		b.ent.DeadlineNanos = meta.DeadlineNanos
	}
	mark := len(b.buf)
	buf, err := AppendEncode(b.buf, &b.ent)
	if err != nil {
		return err
	}
	lenPos := len(buf) - 4 // Len is the entry header's final field
	buf, err = AppendEncode(buf, in)
	if err != nil {
		b.buf = b.buf[:mark]
		return err
	}
	binary.LittleEndian.PutUint32(buf[lenPos:], uint32(len(buf)-lenPos-4))
	b.buf = buf
	b.count++
	return nil
}

// ForwardBatch posts the handle and sends the builder's sub-requests as
// one vectored frame. The per-entry results surface through the
// BatchEntry* accessors when cb fires. Batch frames skip the eager/RDMA
// split: the coalescer's byte budget bounds them. The caller keeps
// ownership of the builder and releases it after completion: a retry
// sends its bytes again, in a frame of its own, because the frame sent
// here is the receiver's.
func (h *Handle) ForwardBatch(batchID uint64, b *BatchBuilder, cb ForwardCallback) error {
	if h.destroyed.Load() {
		return ErrDestroyed
	}
	if h.isTgt {
		return fmt.Errorf("mercury: ForwardBatch on a target-side handle")
	}
	if b.count == 0 {
		return fmt.Errorf("mercury: ForwardBatch with empty batch")
	}
	c := h.class
	c.rpcsInvoked.Inc()
	c.batchesForwarded.Inc()
	c.batchedOpsForwarded.Add(uint64(b.count))

	hdr := reqHeader{
		RPCID:   h.rpcID,
		Cookie:  h.cookie,
		Flags:   flagBatch,
		BatchID: batchID,
		Count:   uint32(b.count),
	}
	h.post(hdr.pack(b.buf), cb)
	return nil
}

// batchRespView is one parsed entry of a vectored response; payload is
// a view into the response frame.
type batchRespView struct {
	status  uint8
	flags   uint8
	order   uint64
	payload []byte
}

// parseBatchResp splits a vectored response payload into entry views.
func parseBatchResp(payload []byte, count int) ([]batchRespView, error) {
	// An entry is at least its status, flags and length: a count the
	// payload cannot hold fails before anything is allocated for it.
	if count > len(payload)/6 {
		return nil, fmt.Errorf("%w: %d batch entries in %d bytes", ErrProcShort, count, len(payload))
	}
	ents := make([]batchRespView, count)
	p := acquireDecoder(payload)
	for i := 0; i < count; i++ {
		var ent batchRespEntry
		body, err := ent.next(p)
		if err != nil {
			releaseProc(p)
			return nil, err
		}
		ents[i] = batchRespView{status: ent.Status, flags: ent.Flags, order: ent.Order, payload: body}
	}
	releaseProc(p)
	return ents, nil
}

// BatchLen reports the number of per-entry results carried by a
// completed vectored forward (origin side).
func (h *Handle) BatchLen() int { return len(h.batchEnts) }

// BatchEntryErr maps entry i's wire status to the error the equivalent
// unbatched Forward would have returned (nil for statusOK).
func (h *Handle) BatchEntryErr(i int) error {
	ent := &h.batchEnts[i]
	return h.statusErr(ent.status, ent.payload)
}

// BatchEntryOutput decodes entry i's response payload into v, charging
// the handle's output-deserialization timer. As with GetOutput, v's views
// of the response frame end with the handle.
func (h *Handle) BatchEntryOutput(i int, v Procable) error {
	h.OutputDeserTime.Start()
	err := Decode(h.batchEnts[i].payload, v)
	h.OutputDeserTime.Stop()
	if err != nil {
		return fmt.Errorf("mercury: decode batch output %d for %s: %w", i, h.rpcName, err)
	}
	return nil
}

// BatchEntryOrder returns the target-side Lamport order stamped on
// entry i's response (zero when the entry carried no trace metadata).
func (h *Handle) BatchEntryOrder(i int) uint64 { return h.batchEnts[i].order }

// handleBatchRequest fans a vectored request out into one target-side
// Handle per entry. Every sub-handle flows through the normal deliver
// path — per-entry admission, deadline checks, handler ULTs — and
// responds into the shared batchTarget, which sends one reply frame
// when the last member finishes. A sub-handle is an ordinary pooled
// handle owned by its handler; the batchTarget is the context of the
// reply send and never names its members, so it holds no reference.
// The members' payloads are views of the one request frame, which the
// batchTarget keeps until the last of them has been reset.
func (c *Class) handleBatchRequest(msg *na.Message, hdr *reqHeader, payload []byte) {
	from := msg.From
	count := int(hdr.Count)
	if count <= 0 || count > len(payload)/5 { // an entry is at least its flags and length
		putFrame(msg.Data) // malformed; drop
		return
	}
	subs := make([]*Handle, 0, count)
	bt := &batchTarget{
		class:   c,
		cookie:  hdr.Cookie,
		peer:    from,
		batchID: hdr.BatchID,
		frame:   msg.Data,
		slots:   make([]batchSlot, count),
	}
	bt.pending.Store(int32(count))
	bt.members.Store(int32(count))
	p := acquireDecoder(payload)
	for i := 0; i < count; i++ {
		var ent batchReqEntry
		body, err := ent.next(p)
		if err != nil {
			// Malformed: drop the whole frame before any delivery.
			releaseProc(p)
			bt.members.Store(int32(len(subs)))
			for _, sub := range subs {
				sub.Destroy()
			}
			if len(subs) == 0 {
				putFrame(bt.frame)
			}
			return
		}
		sub := c.acquireTarget(hdr.Cookie, hdr.RPCID, from)
		sub.meta = Meta{
			HasTrace:      ent.Flags&flagTrace != 0,
			Breadcrumb:    ent.Breadcrumb,
			RequestID:     ent.RequestID,
			Order:         ent.Order,
			DeadlineNanos: ent.DeadlineNanos,
			BatchID:       hdr.BatchID,
		}
		sub.reqPayload = body
		sub.batchTgt, sub.batchSlot = bt, i
		subs = append(subs, sub)
	}
	releaseProc(p)
	c.batchesHandled.Inc()
	c.batchedOpsHandled.Add(uint64(count))
	for _, sub := range subs {
		c.deliver(sub)
	}
}

// batchSlot is one entry of the in-progress batch reply. Each slot is
// written by exactly one handler ULT; visibility to the sender is
// provided by the pending counter's atomic decrement.
type batchSlot struct {
	status uint8
	flags  uint8
	order  uint64
	// payload is the encoded sub-response, in a pooled arena held from
	// record until send has copied it into the reply frame.
	payload []byte
	arena   *[]byte
	cb      func(error)
}

// batchTarget is the target-side fan-in state shared by the
// sub-handles of one vectored request.
type batchTarget struct {
	class   *Class
	cookie  uint64
	peer    string
	batchID uint64
	slots   []batchSlot
	pending atomic.Int32
	// frame is the vectored request frame; members counts the sub-handles
	// whose payload views still point into it.
	frame   []byte
	members atomic.Int32
}

// unrefFrame is called by each member as it is reset; the last one
// recycles the request frame.
func (bt *batchTarget) unrefFrame() {
	if bt.members.Add(-1) == 0 {
		putFrame(bt.frame)
		bt.frame = nil
	}
}

// record stores one sub-response; the member that brings the pending
// count to zero packs and sends the combined reply.
func (bt *batchTarget) record(h *Handle, status uint8, out Procable, meta Meta, cb func(error)) error {
	slot := &bt.slots[h.batchSlot]
	if out != nil {
		slot.arena = GetArena(0)
		h.OutputSerTime.Start()
		payload, err := AppendEncode(*slot.arena, out)
		h.OutputSerTime.Stop()
		if err != nil {
			// Surface the encode failure to the origin as a handler
			// error rather than stalling the whole batch.
			status = statusHandlerError
			raw := RawBytes(err.Error())
			payload, _ = AppendEncode(payload[:0], &raw)
		}
		slot.payload = payload
	}
	slot.status = status
	if meta.HasTrace {
		slot.flags |= flagTrace
		slot.order = meta.Order
	}
	slot.cb = cb
	if bt.pending.Add(-1) == 0 {
		return bt.send()
	}
	return nil
}

// send packs the per-entry statuses into one response frame. All
// member callbacks share the batch reply's send completion (t13).
func (bt *batchTarget) send() error {
	c := bt.class
	size := 4 + respHeaderMax
	for i := range bt.slots {
		// An entry header is no larger than a response header.
		size += respHeaderMax + len(bt.slots[i].payload)
	}
	hdr := respHeader{Status: statusOK, Flags: flagBatch, Count: uint32(len(bt.slots))}
	p := beginFrame(size)
	hdr.Proc(p)
	p.endHeader()
	for i := range bt.slots {
		slot := &bt.slots[i]
		ent := batchRespEntry{Status: slot.status, Flags: slot.flags, Order: slot.order, Len: uint32(len(slot.payload))}
		ent.Proc(p)
		p.raw(slot.payload)
		if slot.arena != nil {
			PutArena(slot.arena, slot.payload)
			slot.arena, slot.payload = nil, nil
		}
	}
	c.responsesSent.Inc()
	c.ep.Send(bt.peer, bt.cookie, p.endFrame(), bt)
	return nil
}

// complete runs every member callback with the reply send outcome.
func (bt *batchTarget) complete(err error) {
	for i := range bt.slots {
		if cb := bt.slots[i].cb; cb != nil {
			cb(err)
		}
	}
}
