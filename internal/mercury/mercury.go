// Package mercury is an RPC framework modeled on Mercury, the RPC layer
// of the Mochi stack. It provides registered RPCs identified by name
// hash, a proc-based binary codec, an eager request path with an internal
// RDMA fallback when request metadata overflows the eager buffer, a bulk
// transfer interface for large data, and a callback-driven completion
// model progressed explicitly by the caller (Progress/Trigger).
//
// The package also exports the SYMBIOSYS performance-variable (PVAR)
// interface (see the pvar subpackage): library-global PVARs such as the
// completion-queue size and handle-bound PVARs such as per-RPC
// (de)serialization timers, per the paper's Tables I and II.
package mercury

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"symbiosys/internal/mercury/pvar"
	"symbiosys/internal/na"
)

// Errors returned by RPC operations.
var (
	ErrCanceled    = errors.New("mercury: operation canceled")
	ErrUnknownRPC  = errors.New("mercury: RPC not registered at target")
	ErrHandlerFail = errors.New("mercury: remote handler failed")
	ErrDestroyed   = errors.New("mercury: handle destroyed")
	ErrRPCRegister = errors.New("mercury: RPC registration conflict")
	// ErrOverloaded reports a request shed by the target's admission
	// control before any handler ran. The operation had no effect and is
	// safe to retry after backoff.
	ErrOverloaded = errors.New("mercury: target overloaded, request shed")
	// ErrDeadlineExpired reports a request the target rejected because
	// its propagated deadline had already passed.
	ErrDeadlineExpired = errors.New("mercury: request deadline expired at target")
)

// eagerLimit is the number of request-metadata bytes sent eagerly;
// larger serialized inputs trigger an internal RDMA transfer for the
// remainder (paper §III-C1).
const eagerLimit = 4096

// Config tunes a Mercury instance.
type Config struct {
	// OFIMaxEvents bounds how many network completion events one
	// Progress call reads — the paper's OFI_max_events, default 16
	// (paper §V-C4).
	OFIMaxEvents int
}

func (c *Config) fillDefaults() {
	if c.OFIMaxEvents <= 0 {
		c.OFIMaxEvents = 16
	}
}

// HandlerFunc services an incoming RPC. It runs inside Trigger on the
// caller's progress context; implementations that need concurrency (all
// real services) immediately hand the handle to a ULT.
type HandlerFunc func(h *Handle)

// ForwardCallback completes a Forward.
type ForwardCallback func(h *Handle, err error)

type rpcDef struct {
	id      uint32
	name    string
	handler HandlerFunc
}

// Class is one Mercury instance: an endpoint plus its registered RPCs,
// posted handles, completion queue, and PVAR registry. A virtual process
// owns exactly one Class.
type Class struct {
	ep  *na.Endpoint
	cfg Config

	mu     sync.Mutex
	rpcs   map[uint32]*rpcDef
	posted map[uint64]*Handle

	cookieSeq atomic.Uint64

	// The completion queue is a head-indexed ring under cmu: cq has a
	// power-of-two length, cqHead is the oldest entry, cqLen the depth.
	cmu    sync.Mutex
	cq     []completion
	cqHead int
	cqLen  int

	// evBuf is the reusable event buffer for Progress's bounded read,
	// guarded by progMu (one progress ULT drives Progress in practice,
	// but nothing enforces that at this layer).
	progMu sync.Mutex
	evBuf  []na.Event

	pvars *pvar.Registry

	// PVAR backing values (Table II).
	postedLevel    pvar.Level
	cqLevel        pvar.Level
	ofiRead        pvar.Level
	rpcsInvoked    pvar.Counter
	rpcsHandled    pvar.Counter
	responsesSent  pvar.Counter
	eagerOverflows pvar.Counter
	staleResponses pvar.Counter
	bulkBytes      pvar.Counter
	sendErrors     pvar.Counter

	// Vectored-frame counters (batching layer).
	batchesForwarded    pvar.Counter
	batchedOpsForwarded pvar.Counter
	batchesHandled      pvar.Counter
	batchedOpsHandled   pvar.Counter
}

// compKind says what Trigger does with a queued completion.
type compKind uint8

const (
	compResponse     compKind = iota // a response arrived for posted handle h (t12)
	compForwardErr                   // h's forward failed locally: send error, cancel, malformed response
	compRequest                      // fully received request h goes to its RPC handler
	compUnknownRPC                   // request h names no handler; answer with an error status
	compResponded                    // h's response was handed to the network (t13), or failed to be
	compBatchReplied                 // the same for the vectored reply bt
	compBulk                         // bulk transfer op finished
)

// completion is one typed completion-queue entry: the record it
// concerns plus its enqueue instant. Entries carry no closure, so
// queueing a completion allocates nothing. An entry that names a handle
// holds a reference to it from enqueue until Trigger has run it.
type completion struct {
	kind compKind
	h    *Handle
	bt   *batchTarget
	op   *bulkOp
	err  error
	enq  time.Time
}

// NewClass creates a Mercury instance bound to a fabric endpoint.
func NewClass(ep *na.Endpoint, cfg Config) *Class {
	cfg.fillDefaults()
	c := &Class{
		ep:     ep,
		cfg:    cfg,
		rpcs:   make(map[uint32]*rpcDef),
		posted: make(map[uint64]*Handle),
		pvars:  pvar.NewRegistry(),
	}
	c.registerPVars()
	return c
}

// Addr returns the instance's fabric address.
func (c *Class) Addr() string { return c.ep.Addr() }

// Config returns the instance configuration.
func (c *Class) Config() Config { return c.cfg }

// PVars returns the instance's performance-variable registry.
func (c *Class) PVars() *pvar.Registry { return c.pvars }

// hashRPC derives the stable 32-bit identifier of an RPC name.
func hashRPC(name string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(name))
	return h.Sum32()
}

// Register installs an RPC by name. Clients that only forward a given
// RPC pass a nil handler. Registering the same name twice replaces a nil
// handler but conflicts on a non-nil one; distinct names that collide in
// the 32-bit id space are rejected.
func (c *Class) Register(name string, handler HandlerFunc) error {
	id := hashRPC(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.rpcs[id]; ok {
		if old.name != name {
			return fmt.Errorf("%w: %q collides with %q", ErrRPCRegister, name, old.name)
		}
		if old.handler != nil && handler != nil {
			return fmt.Errorf("%w: %q already has a handler", ErrRPCRegister, name)
		}
		if handler != nil {
			old.handler = handler
		}
		return nil
	}
	c.rpcs[id] = &rpcDef{id: id, name: name, handler: handler}
	return nil
}

// enqueue adds a completion to the internal queue, stamping its
// enqueue instant and taking the queue's reference to the handle it
// names; the caller holds one of its own across the call.
func (c *Class) enqueue(comp completion) {
	comp.enq = time.Now()
	if comp.h != nil {
		comp.h.Ref()
	}
	c.cmu.Lock()
	if c.cqLen == len(c.cq) {
		c.growCQLocked()
	}
	c.cq[(c.cqHead+c.cqLen)&(len(c.cq)-1)] = comp
	c.cqLen++
	n := int64(c.cqLen)
	c.cmu.Unlock()
	c.cqLevel.Set(n)
}

// growCQLocked doubles the ring, unrolling it so the head is at 0.
func (c *Class) growCQLocked() {
	next := make([]completion, max(16, 2*len(c.cq)))
	n := copy(next, c.cq[c.cqHead:])
	copy(next[n:], c.cq[:c.cqHead])
	c.cq, c.cqHead = next, 0
}

// Progress reads up to OFIMaxEvents network completion events and
// converts them into queued callbacks. If no events are immediately
// available it waits up to timeout for one. It returns the number of
// events read — the value of the num_ofi_events_read PVAR.
func (c *Class) Progress(timeout time.Duration) int {
	max := c.cfg.OFIMaxEvents
	c.progMu.Lock()
	defer c.progMu.Unlock()
	evs := c.ep.PollInto(c.evBuf, max)
	if len(evs) == 0 && timeout > 0 && c.ep.Wait(timeout) {
		evs = c.ep.PollInto(c.evBuf, max)
	}
	if cap(evs) > cap(c.evBuf) {
		c.evBuf = evs[:0]
	}
	c.ofiRead.Set(int64(len(evs)))
	for i := range evs {
		c.dispatch(&evs[i])
	}
	// Drop message and context references so the retained buffer does
	// not pin the frames and handles of already-dispatched events.
	clear(evs)
	return len(evs)
}

// Trigger runs up to max queued callbacks, returning how many ran.
func (c *Class) Trigger(max int) int {
	ran := 0
	for ran < max {
		c.cmu.Lock()
		if c.cqLen == 0 {
			c.cmu.Unlock()
			break
		}
		comp := c.cq[c.cqHead]
		c.cq[c.cqHead] = completion{}
		c.cqHead = (c.cqHead + 1) & (len(c.cq) - 1)
		c.cqLen--
		n := int64(c.cqLen)
		c.cmu.Unlock()
		c.cqLevel.Set(n)
		c.run(comp)
		ran++
	}
	return ran
}

// run executes one dequeued completion, then gives back the queue's
// reference to its handle.
func (c *Class) run(comp completion) {
	switch comp.kind {
	case compResponse:
		comp.h.OriginCBTime.SetDuration(time.Since(comp.enq))
		comp.h.completeForward(nil)
	case compForwardErr:
		comp.h.completeForward(comp.err)
	case compRequest:
		comp.h.handler(comp.h)
	case compUnknownRPC:
		// No handler will ever own this handle: answer, then drop the
		// owner's reference here.
		comp.h.respondStatus(statusUnknownRPC, nil, Meta{}, nil)
		comp.h.Destroy()
	case compResponded:
		comp.h.respCB(comp.err)
	case compBatchReplied:
		comp.bt.complete(comp.err)
	case compBulk:
		comp.op.finish(comp.err)
	}
	if comp.h != nil {
		comp.h.Unref()
	}
}

// NetworkPending reports completion events still waiting in the network
// layer (not yet read by Progress) — the paper's clogged-OFI-queue
// signal.
func (c *Class) NetworkPending() int { return c.ep.Pending() }

// dispatch converts one network event into completion-queue work. The
// context of every asynchronous network operation is the record it
// belongs to: the *Handle of a request send, response send or internal
// RDMA fetch, the *batchTarget of a vectored reply, the *bulkOp of a
// bulk transfer. A handle was referenced when the operation was issued;
// that reference comes back here, once the operation's one completion
// event has been turned into whatever it causes. Until then the handle
// cannot start another life, so an EvError arriving long after the
// forward was canceled and destroyed still finds the request it is about.
func (c *Class) dispatch(ev *na.Event) {
	switch ev.Kind {
	case na.EvRecv:
		if ev.Msg.Tag == na.TagUnexpected {
			c.handleRequest(&ev.Msg)
		} else {
			c.handleResponse(&ev.Msg)
		}
	case na.EvRDMADone:
		switch ctx := ev.Ctx.(type) {
		case *Handle:
			ctx.RDMATime.Stop()
			c.deliver(ctx)
		case *bulkOp:
			c.enqueue(completion{kind: compBulk, op: ctx})
		}
	case na.EvSendDone:
		switch ctx := ev.Ctx.(type) {
		case *Handle:
			// An origin's request hit the wire (completion comes with
			// the response), or a target's response did (t13).
			if ctx.isTgt && ctx.respCB != nil {
				c.enqueue(completion{kind: compResponded, h: ctx})
			}
		case *batchTarget:
			// The batch reply hit the wire: every member's completion
			// callback shares this t13.
			c.enqueue(completion{kind: compBatchReplied, bt: ctx})
		}
	case na.EvError:
		c.sendErrors.Inc()
		switch ctx := ev.Ctx.(type) {
		case *Handle:
			if !ctx.isTgt {
				c.unpost(ctx)
				c.enqueue(completion{kind: compForwardErr, h: ctx, err: ev.Err})
			} else if ctx.respCB != nil {
				c.enqueue(completion{kind: compResponded, h: ctx, err: ev.Err})
			}
			// A target handle without a response callback either sent
			// one nobody waits on, or failed its request metadata fetch:
			// the request is dropped, and the origin observes a
			// cancel/timeout at a higher layer.
		case *batchTarget:
			c.enqueue(completion{kind: compBatchReplied, bt: ctx, err: ev.Err})
		case *bulkOp:
			c.enqueue(completion{kind: compBulk, op: ctx, err: ev.Err})
		}
	}
	if h, ok := ev.Ctx.(*Handle); ok {
		h.Unref()
	}
}

// handleRequest processes an incoming unexpected message (a request).
func (c *Class) handleRequest(msg *na.Message) {
	var hdr reqHeader
	eager, err := hdr.unpack(msg.Data)
	if err != nil {
		putFrame(msg.Data) // malformed; drop
		return
	}
	if hdr.Flags&flagBatch != 0 {
		c.handleBatchRequest(msg, &hdr, eager)
		return
	}
	h := c.acquireTarget(hdr.Cookie, hdr.RPCID, msg.From)
	h.meta = Meta{
		HasTrace:      hdr.Flags&flagTrace != 0,
		Breadcrumb:    hdr.Breadcrumb,
		RequestID:     hdr.RequestID,
		Order:         hdr.Order,
		DeadlineNanos: hdr.DeadlineNanos,
	}
	if hdr.Flags&flagMore == 0 {
		h.frame, h.reqPayload = msg.Data, eager
		c.deliver(h)
		return
	}
	// Metadata overflowed the eager buffer: pull the remainder with an
	// internal RDMA get before the request is delivered (t3→t4). The
	// payload is assembled in a buffer of its own, so the frame is done.
	if int(hdr.TotalLen) < len(eager) || hdr.TotalLen > maxBlob {
		h.Destroy()
		putFrame(msg.Data) // malformed; drop
		return
	}
	buf := make([]byte, int(hdr.TotalLen))
	copy(buf, eager)
	putFrame(msg.Data)
	h.reqPayload = buf
	h.RDMATime.Start()
	h.Ref() // the transfer's, given back by dispatch
	c.ep.Get(hdr.Mem, 0, buf[len(eager):], h)
}

// deliver queues handler invocation for a fully received request.
func (c *Class) deliver(h *Handle) {
	c.mu.Lock()
	def := c.rpcs[h.rpcID]
	c.mu.Unlock()
	if def == nil || def.handler == nil {
		c.enqueue(completion{kind: compUnknownRPC, h: h})
		return
	}
	h.rpcName = def.name
	h.handler = def.handler
	c.rpcsHandled.Inc()
	c.enqueue(completion{kind: compRequest, h: h})
}

// handleResponse matches a response message to its posted handle.
func (c *Class) handleResponse(msg *na.Message) {
	c.mu.Lock()
	h, ok := c.posted[msg.Tag]
	if ok {
		delete(c.posted, msg.Tag)
	}
	c.mu.Unlock()
	if !ok {
		c.staleResponses.Inc()
		putFrame(msg.Data)
		return
	}
	c.postedLevel.Add(-1)
	// The posted table's reference is ours now; it goes back once the
	// completion holds its own. The frame is the handle's either way.
	defer h.Unref()
	h.frame = msg.Data
	var hdr respHeader
	payload, err := hdr.unpack(msg.Data)
	if err == nil && hdr.Flags&flagBatch != 0 {
		h.batchEnts, err = parseBatchResp(payload, int(hdr.Count))
	}
	if err != nil {
		c.enqueue(completion{kind: compForwardErr, h: h, err: err})
		return
	}
	h.respStatus = hdr.Status
	h.respMeta = Meta{HasTrace: hdr.Flags&flagTrace != 0, Order: hdr.Order}
	h.respPayload = payload
	// t12: the completion enters the queue; the delay until the origin
	// callback runs at t14 is the origin completion callback time.
	c.enqueue(completion{kind: compResponse, h: h})
}

// unpost takes h out of the posted table, if it is still there, and
// gives back the table's reference. The caller holds one of its own.
func (c *Class) unpost(h *Handle) {
	c.mu.Lock()
	_, ok := c.posted[h.cookie]
	if ok {
		delete(c.posted, h.cookie)
		c.postedLevel.Add(-1)
	}
	c.mu.Unlock()
	if ok {
		h.Unref()
	}
}
