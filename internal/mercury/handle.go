package mercury

import (
	"fmt"
	"sync/atomic"
	"time"

	"symbiosys/internal/na"

	"symbiosys/internal/mercury/pvar"
)

// Handle represents one RPC exchange, on either side: the origin creates
// a handle, forwards input through it and receives the response; the
// target receives a handle per incoming request and responds through it.
// Handle-bound PVARs (the per-RPC timers of Table II) live here and go
// out of scope with the handle, exactly as the paper describes.
type Handle struct {
	class   *Class
	cookie  uint64
	rpcID   uint32
	rpcName string

	// target is the service address; peer is the origin address (set on
	// the target side from the incoming message).
	target string
	peer   string
	isTgt  bool

	// data is the owner's per-request record (see SetData).
	data any

	// Origin-side state.
	cb            ForwardCallback
	respPayload   []byte
	respStatus    uint8
	respMeta      Meta
	memRegistered bool
	memH          na.MemHandle
	completed     atomic.Bool
	// batchEnts holds the parsed per-entry views of a vectored
	// response (origin side of a ForwardBatch).
	batchEnts []batchRespView

	// Target-side state.
	reqPayload []byte
	meta       Meta
	arrived    time.Time
	// handler is the registered RPC handler the request is delivered to.
	handler HandlerFunc
	// respCB is the caller's response-sent callback (t13). The handle
	// itself is the context of the response send.
	respCB func(error)
	// batchTgt links a sub-handle of a vectored request to the shared
	// fan-in state; batchSlot is this entry's index in the reply.
	batchTgt  *batchTarget
	batchSlot int

	destroyed atomic.Bool

	// Handle-bound PVARs (paper Table II).
	InputSerTime    pvar.Timer // t2→t3: serialize input on origin
	InputDeserTime  pvar.Timer // t6→t7: deserialize input on target
	OutputSerTime   pvar.Timer // t9→t10: serialize output on target
	OutputDeserTime pvar.Timer // deserialize output on origin
	RDMATime        pvar.Timer // t3→t4: internal RDMA metadata fetch
	OriginCBTime    pvar.Timer // t12→t14: response CQ residence
}

// Create prepares an origin-side handle for one invocation of the named
// RPC at the target address. The RPC must have been registered locally
// (a nil handler suffices on clients).
func (c *Class) Create(target, rpcName string) (*Handle, error) {
	id := hashRPC(rpcName)
	c.mu.Lock()
	def := c.rpcs[id]
	c.mu.Unlock()
	if def == nil || def.name != rpcName {
		return nil, fmt.Errorf("%w: %q not registered locally", ErrUnknownRPC, rpcName)
	}
	return &Handle{
		class:   c,
		cookie:  c.cookieSeq.Add(1),
		rpcID:   id,
		rpcName: rpcName,
		target:  target,
	}, nil
}

// SetData attaches the owner's per-request record to the handle, so a
// package-level completion callback can recover it from the handle it
// is passed instead of capturing it in a closure. Storing a pointer
// does not allocate.
func (h *Handle) SetData(v any) { h.data = v }

// Data returns the value last stored with SetData, nil when none.
func (h *Handle) Data() any { return h.data }

// RPCName returns the RPC the handle belongs to.
func (h *Handle) RPCName() string { return h.rpcName }

// Target returns the service address of the exchange.
func (h *Handle) Target() string { return h.target }

// Peer returns the origin address (target side only).
func (h *Handle) Peer() string { return h.peer }

// Meta returns the SYMBIOSYS metadata carried by the request (target
// side) — breadcrumb, request ID, Lamport order.
func (h *Handle) Meta() Meta { return h.meta }

// RespMeta returns the metadata carried by the response (origin side).
func (h *Handle) RespMeta() Meta { return h.respMeta }

// Arrived returns when the request arrived at the target (t3).
func (h *Handle) Arrived() time.Time { return h.arrived }

// Forward serializes in, posts the handle, and sends the request. cb is
// invoked from Trigger when the response (or a failure) arrives. meta is
// the instrumentation payload; with meta.HasTrace false nothing extra is
// sent (the measurement-off baseline).
func (h *Handle) Forward(in Procable, meta Meta, cb ForwardCallback) error {
	if h.destroyed.Load() {
		return ErrDestroyed
	}
	if h.isTgt {
		return fmt.Errorf("mercury: Forward on a target-side handle")
	}
	c := h.class
	c.rpcsInvoked.Inc()

	// Serialize into a pooled arena: the cursor and scratch buffer are
	// recycled, so the only allocation left on this path is the frame
	// handed to the fabric (see finishFrame).
	h.InputSerTime.Start()
	arena := GetArena(0)
	payload, err := AppendEncode(*arena, in)
	h.InputSerTime.Stop()
	if err != nil {
		PutArena(arena, payload)
		return fmt.Errorf("mercury: encode input for %s: %w", h.rpcName, err)
	}

	hdr := reqHeader{RPCID: h.rpcID, Cookie: h.cookie}
	if meta.HasTrace {
		hdr.Flags |= flagTrace
		hdr.Breadcrumb = meta.Breadcrumb
		hdr.RequestID = meta.RequestID
		hdr.Order = meta.Order
	}
	if meta.DeadlineNanos != 0 || meta.Priority != 0 {
		hdr.Flags |= flagDeadline
		hdr.DeadlineNanos = meta.DeadlineNanos
		hdr.Priority = meta.Priority
	}
	eager := payload
	if len(payload) > c.cfg.EagerLimit {
		// Eager overflow: expose the tail for the target's internal
		// RDMA fetch and send only the head eagerly. The tail must be
		// copied out of the pooled arena first — registered memory is
		// held until the RDMA completes, long after the arena has been
		// recycled for another request.
		c.eagerOverflows.Inc()
		hdr.Flags |= flagMore
		hdr.TotalLen = uint32(len(payload))
		tail := make([]byte, len(payload)-c.cfg.EagerLimit)
		copy(tail, payload[c.cfg.EagerLimit:])
		h.memH = c.ep.RegisterMemory(tail)
		h.memRegistered = true
		hdr.Mem = h.memH
		eager = payload[:c.cfg.EagerLimit]
	}
	frame, err := hdr.pack(eager)
	PutArena(arena, payload)
	if err != nil {
		return err
	}
	h.post(frame, cb)
	return nil
}

// post registers the handle as awaiting a response and sends the
// request frame; the handle is the send's context.
func (h *Handle) post(frame []byte, cb ForwardCallback) {
	c := h.class
	h.cb = cb
	c.mu.Lock()
	c.posted[h.cookie] = h
	c.mu.Unlock()
	c.postedLevel.Add(1)
	c.ep.Send(h.target, na.TagUnexpected, frame, h)
}

// completeForward finishes the origin side exactly once.
func (h *Handle) completeForward(err error) {
	if !h.completed.CompareAndSwap(false, true) {
		return
	}
	if h.memRegistered {
		h.class.ep.DeregisterMemory(h.memH)
		h.memRegistered = false
	}
	if err == nil {
		err = h.statusErr(h.respStatus, h.respPayload)
	}
	if h.cb != nil {
		h.cb(h, err)
	}
}

// statusErr maps a wire status (top-level or batch entry) to the error
// the Forward caller observes.
func (h *Handle) statusErr(status uint8, payload []byte) error {
	switch status {
	case statusOK:
		return nil
	case statusUnknownRPC:
		return fmt.Errorf("%w: %s", ErrUnknownRPC, h.rpcName)
	case statusHandlerError:
		var msg RawBytes
		if derr := Decode(payload, &msg); derr == nil && len(msg) > 0 {
			return fmt.Errorf("%w: %s: %s", ErrHandlerFail, h.rpcName, msg)
		}
		return fmt.Errorf("%w: %s", ErrHandlerFail, h.rpcName)
	case statusOverloaded:
		return fmt.Errorf("%w: %s", ErrOverloaded, h.rpcName)
	case statusExpired:
		return fmt.Errorf("%w: %s", ErrDeadlineExpired, h.rpcName)
	default:
		return fmt.Errorf("mercury: bad response status %d", status)
	}
}

// Cancel aborts a posted Forward; the callback fires with ErrCanceled.
// A response arriving later is dropped as stale.
func (h *Handle) Cancel() {
	c := h.class
	c.unpost(h)
	c.enqueue(completion{kind: compForwardErr, h: h, err: ErrCanceled})
}

// GetInput deserializes the request payload into v (target side),
// charging the input_deserialization_time PVAR (t6→t7). v's byte slices
// are read-only views of the received frame and pin it while held.
func (h *Handle) GetInput(v Procable) error {
	h.InputDeserTime.Start()
	err := Decode(h.reqPayload, v)
	h.InputDeserTime.Stop()
	if err != nil {
		return fmt.Errorf("mercury: decode input for rpc %#x: %w", h.rpcID, err)
	}
	return nil
}

// GetOutput deserializes the response payload into v (origin side). v's
// byte slices are views of the response frame, which only the caller
// references from then on.
func (h *Handle) GetOutput(v Procable) error {
	h.OutputDeserTime.Start()
	err := Decode(h.respPayload, v)
	h.OutputDeserTime.Stop()
	if err != nil {
		return fmt.Errorf("mercury: decode output for %s: %w", h.rpcName, err)
	}
	return nil
}

// InputSize reports the serialized request payload size at the target.
func (h *Handle) InputSize() int { return len(h.reqPayload) }

// Respond serializes out and sends it back to the origin. cb (optional)
// fires from Trigger when the response has been handed to the network —
// the paper's t13, closing the target completion callback interval.
func (h *Handle) Respond(out Procable, meta Meta, cb func(error)) error {
	return h.respondStatus(statusOK, out, meta, cb)
}

// RespondError reports a handler failure to the origin.
func (h *Handle) RespondError(msg string, meta Meta, cb func(error)) error {
	raw := RawBytes(msg)
	return h.respondStatus(statusHandlerError, &raw, meta, cb)
}

// RespondOverloaded reports that the target's admission control shed
// the request before any handler ran; the origin's Forward completes
// with ErrOverloaded.
func (h *Handle) RespondOverloaded(meta Meta, cb func(error)) error {
	return h.respondStatus(statusOverloaded, nil, meta, cb)
}

// RespondExpired reports that the request's propagated deadline had
// already passed when the target examined it; the origin's Forward
// completes with ErrDeadlineExpired.
func (h *Handle) RespondExpired(meta Meta, cb func(error)) error {
	return h.respondStatus(statusExpired, nil, meta, cb)
}

func (h *Handle) respondStatus(status uint8, out Procable, meta Meta, cb func(error)) error {
	if !h.isTgt {
		return fmt.Errorf("mercury: Respond on an origin-side handle")
	}
	if h.batchTgt != nil {
		// Sub-request of a vectored frame: record into the shared batch
		// reply instead of sending a frame of its own. The last member
		// to respond packs and sends the single batch response.
		return h.batchTgt.record(h, status, out, meta, cb)
	}
	c := h.class
	arena := GetArena(0)
	payload := *arena
	var err error
	if out != nil {
		h.OutputSerTime.Start()
		payload, err = AppendEncode(payload, out)
		h.OutputSerTime.Stop()
		if err != nil {
			PutArena(arena, payload)
			return fmt.Errorf("mercury: encode output for rpc %#x: %w", h.rpcID, err)
		}
	}
	hdr := respHeader{Status: status}
	if meta.HasTrace {
		hdr.Flags |= flagTrace
		hdr.Order = meta.Order
	}
	frame, err := hdr.pack(payload)
	PutArena(arena, payload)
	if err != nil {
		return err
	}
	c.responsesSent.Inc()
	h.respCB = cb
	c.ep.Send(h.peer, h.cookie, frame, h)
	return nil
}

// Destroy releases handle resources. Safe to call multiple times.
func (h *Handle) Destroy() {
	if h.destroyed.CompareAndSwap(false, true) && h.memRegistered {
		h.class.ep.DeregisterMemory(h.memH)
		h.memRegistered = false
	}
}
