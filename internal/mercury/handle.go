package mercury

import (
	"fmt"
	"sync"
	"sync/atomic"

	"symbiosys/internal/na"

	"symbiosys/internal/mercury/pvar"
)

// Handle represents one RPC exchange, on either side: the origin creates
// a handle, forwards input through it and receives the response; the
// target receives a handle per incoming request and responds through it.
// Handle-bound PVARs (the per-RPC timers of Table II) live here and go
// out of scope with the handle, exactly as the paper describes.
//
// Lifetime. Handles are reference-counted and recycled, as Mercury's
// are. A reference is held by everything that can still name the
// handle:
//
//   - its owner: whoever Create returned it to, or the handler a request
//     was delivered to. Destroy gives this one back;
//   - the posted table, from Forward until a response, a send error or a
//     Cancel takes the handle out of it;
//   - every queued completion that concerns it, until Trigger has run it;
//   - every fabric operation whose context it is (the request send, the
//     response send, the internal RDMA fetch), until Progress has read
//     that operation's completion event;
//   - anyone else who took one with Ref, such as a timer that may still
//     Cancel it.
//
// When the last reference goes, the handle is reset to its zero value —
// timers, Data, payload views and batch entries included — and returned
// to the pool for another request; the frame it received goes back to
// the frame pool with it (see the table below). So whatever arrives late
// meets the request it was about or nothing at all: a late timer or
// EvError still holds its reference and finds the old request, already
// completed (a no-op); a duplicate or late response finds no posted
// cookie, cookies being unique per life, and is counted stale. A handle
// whose owner never calls Destroy, or whose completion event was lost
// with its endpoint, is simply left to the garbage collector.
//
// Frames. A wire frame has one holder at a time:
//
//	sender, Forward/Respond → Send    encodes into it; gone at Send
//	fabric, Send → delivery           a dropped message or failed send
//	                                  leaves it to the garbage collector;
//	                                  a duplicate is a private copy
//	target handle (request frame)     until its last Unref; the members
//	                                  of a vectored frame share it until
//	                                  the last of them goes. Input views
//	                                  are valid until the handler returns
//	origin handle (response frame)    until its last Unref, then recycled:
//	                                  output views end with the handle,
//	                                  so a reply type that keeps bytes
//	                                  copies them in its Proc
//	no handle (stale, duplicate or    recycled at once
//	malformed message)
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

	// frame is the received frame the payload views below point into: the
	// request at the target, the response at the origin (a member of a
	// vectored request shares batchTgt's instead).
	frame []byte

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
	// handler is the registered RPC handler the request is delivered to.
	handler HandlerFunc
	// respCB is the caller's response-sent callback (t13). The handle
	// itself is the context of the response send.
	respCB func(error)
	// batchTgt links a sub-handle of a vectored request to the shared
	// fan-in state; batchSlot is this entry's index in the reply.
	batchTgt  *batchTarget
	batchSlot int

	// refs counts the references described above. destroyed is the
	// owner's: set by the first Destroy of a life, and left set while the
	// handle sits in the pool.
	refs      atomic.Int32
	destroyed atomic.Bool

	// Handle-bound PVARs (paper Table II).
	InputSerTime    pvar.Timer // t2→t3: serialize input on origin
	InputDeserTime  pvar.Timer // t6→t7: deserialize input on target
	OutputSerTime   pvar.Timer // t9→t10: serialize output on target
	OutputDeserTime pvar.Timer // deserialize output on origin
	RDMATime        pvar.Timer // t3→t4: internal RDMA metadata fetch
	OriginCBTime    pvar.Timer // t12→t14: response CQ residence
}

var handlePool = sync.Pool{New: func() any { return new(Handle) }}

// acquire starts a pooled handle's next life, holding its owner's
// reference. Everything else is zero: the last Unref left it so.
func (c *Class) acquire() *Handle {
	h := handlePool.Get().(*Handle)
	h.destroyed.Store(false)
	h.refs.Store(1)
	h.class = c
	return h
}

// acquireTarget is acquire for the handle of an incoming request.
func (c *Class) acquireTarget(cookie uint64, rpcID uint32, peer string) *Handle {
	h := c.acquire()
	h.cookie, h.rpcID = cookie, rpcID
	h.peer, h.target, h.isTgt = peer, c.Addr(), true
	return h
}

// Ref takes a reference to the handle on behalf of something that may
// use it after its owner's Destroy. The caller must hold a reference
// already (its own, or the owner's by arrangement).
func (h *Handle) Ref() { h.refs.Add(1) }

// Unref gives back a reference taken with Ref. Giving back the last one
// resets the handle and recycles it; the caller must not touch it again.
func (h *Handle) Unref() {
	switch n := h.refs.Add(-1); {
	case n > 0:
		return
	case n < 0:
		panic("mercury: handle reference given back twice")
	}
	switch {
	case h.batchTgt != nil:
		h.batchTgt.unrefFrame()
	case h.frame != nil:
		putFrame(h.frame)
	}
	*h = Handle{}
	h.destroyed.Store(true)
	handlePool.Put(h)
}

// Create prepares an origin-side handle for one invocation of the named
// RPC at the target address. The RPC must have been registered locally
// (a nil handler suffices on clients). The handle comes from the pool,
// zeroed, with one reference: the caller's, which Destroy gives back.
func (c *Class) Create(target, rpcName string) (*Handle, error) {
	id := hashRPC(rpcName)
	c.mu.Lock()
	def := c.rpcs[id]
	c.mu.Unlock()
	if def == nil || def.name != rpcName {
		return nil, fmt.Errorf("%w: %q not registered locally", ErrUnknownRPC, rpcName)
	}
	h := c.acquire()
	h.cookie = c.cookieSeq.Add(1)
	h.rpcID, h.rpcName = id, rpcName
	h.target = target
	return h, nil
}

// SetData attaches the owner's per-request record to the handle, so a
// package-level completion callback can recover it from the handle it
// is passed instead of capturing it in a closure. Storing a pointer
// does not allocate.
func (h *Handle) SetData(v any) { h.data = v }

// Data returns the value last stored with SetData, nil when none.
func (h *Handle) Data() any { return h.data }

// Peer returns the origin address (target side only).
func (h *Handle) Peer() string { return h.peer }

// Meta returns the SYMBIOSYS metadata carried by the request (target
// side) — breadcrumb, request ID, Lamport order.
func (h *Handle) Meta() Meta { return h.meta }

// RespMeta returns the metadata carried by the response (origin side).
func (h *Handle) RespMeta() Meta { return h.respMeta }

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

	hdr := reqHeader{RPCID: h.rpcID, Cookie: h.cookie}
	if meta.HasTrace {
		hdr.Flags |= flagTrace
		hdr.Breadcrumb = meta.Breadcrumb
		hdr.RequestID = meta.RequestID
		hdr.Order = meta.Order
	}
	if meta.DeadlineNanos != 0 {
		hdr.Flags |= flagDeadline
		hdr.DeadlineNanos = meta.DeadlineNanos
	}

	// Header, then input, encoded once into the frame the fabric carries.
	p := beginFrame(0)
	hdr.Proc(p)
	p.endHeader()
	body := len(p.buf)
	h.InputSerTime.Start()
	err := in.Proc(p)
	if err == nil {
		err = p.Err()
	}
	h.InputSerTime.Stop()
	if err != nil {
		p.dropFrame()
		return fmt.Errorf("mercury: encode input for %s: %w", h.rpcName, err)
	}
	frame := p.endFrame()
	if len(frame)-body > eagerLimit {
		frame = h.spill(&hdr, frame, frame[body:])
	}
	h.post(frame, cb)
	return nil
}

// spill handles an input that overflowed the eager buffer: the tail is
// exposed for the target's internal RDMA fetch and only the head goes
// out eagerly, behind a header that says so. The tail is copied out of
// the frame because registered memory is held until the fetch completes,
// long after the frame has been recycled for another request.
func (h *Handle) spill(hdr *reqHeader, frame, payload []byte) []byte {
	c := h.class
	c.eagerOverflows.Inc()
	tail := make([]byte, len(payload)-eagerLimit)
	copy(tail, payload[eagerLimit:])
	h.memH = c.ep.RegisterMemory(tail)
	h.memRegistered = true
	hdr.Flags |= flagMore
	hdr.TotalLen = uint32(len(payload))
	hdr.Mem = h.memH
	eager := hdr.pack(payload[:eagerLimit])
	putFrame(frame)
	return eager
}

// post registers the handle as awaiting a response and sends the
// request frame, which is the receiver's from here on; the handle is the
// send's context. The posted table and the send each take a reference.
func (h *Handle) post(frame []byte, cb ForwardCallback) {
	c := h.class
	h.cb = cb
	h.refs.Add(2)
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
// A response arriving later is dropped as stale. Whoever calls Cancel
// holds a reference: the owner before its Destroy, or one taken with Ref.
func (h *Handle) Cancel() {
	c := h.class
	c.unpost(h)
	c.enqueue(completion{kind: compForwardErr, h: h, err: ErrCanceled})
}

// GetInput deserializes the request payload into v (target side),
// charging the input_deserialization_time PVAR (t6→t7). v's byte slices
// are read-only views of the received frame: valid until the handler
// returns (the frame is recycled with the handle), so a service that
// keeps input bytes copies them.
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
// byte slices are read-only views of the response frame, valid until the
// handle's last Unref recycles it (margo's Forward destroys the handle
// before it returns), so a reply type whose bytes must outlive the handle
// copies them inside its own Proc.
func (h *Handle) GetOutput(v Procable) error {
	h.OutputDeserTime.Start()
	err := Decode(h.respPayload, v)
	h.OutputDeserTime.Stop()
	if err != nil {
		return fmt.Errorf("mercury: decode output for %s: %w", h.rpcName, err)
	}
	return nil
}

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
	hdr := respHeader{Status: status}
	if meta.HasTrace {
		hdr.Flags |= flagTrace
		hdr.Order = meta.Order
	}
	p := beginFrame(0)
	hdr.Proc(p)
	p.endHeader()
	if out != nil {
		h.OutputSerTime.Start()
		err := out.Proc(p)
		if err == nil {
			err = p.Err()
		}
		h.OutputSerTime.Stop()
		if err != nil {
			p.dropFrame()
			return fmt.Errorf("mercury: encode output for rpc %#x: %w", h.rpcID, err)
		}
	}
	frame := p.endFrame()
	c.responsesSent.Inc()
	h.respCB = cb
	h.Ref() // the send's, given back by dispatch
	c.ep.Send(h.peer, h.cookie, frame, h)
	return nil
}

// Destroy gives back the owner's reference: the owner is done with the
// handle and with every view decoded from it. The handle is recycled
// then, or as soon as the network and the completion queue are done with
// it too. Only the first Destroy of a life counts; a repeat is ignored
// rather than taken for someone else's reference.
func (h *Handle) Destroy() {
	if !h.destroyed.CompareAndSwap(false, true) {
		return
	}
	if h.memRegistered {
		h.class.ep.DeregisterMemory(h.memH)
		h.memRegistered = false
	}
	h.Unref()
}
