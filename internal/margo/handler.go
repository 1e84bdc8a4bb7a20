package margo

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/core"
	"symbiosys/internal/mercury"
)

// HandlerFunc services one RPC inside a dedicated handler ULT.
// Implementations read arguments with Context.GetInput, perform their
// work (Compute models backend execution occupying the stream, and
// nested Context.Forward calls extend the distributed callpath), and
// finish with Respond or RespondError.
type HandlerFunc func(ctx *Context)

// Context is the target-side view of one RPC being serviced. It is the
// request's one record on the target: the dispatch record the Trigger
// callback hands to the handler ULT, the request context nested
// forwards inherit from (it sits in the ULT's data slot), and the state
// the response-sent callback (t13) completes the measurements from.
//
// Contexts are recycled: one is valid from the start of the handler
// until the handler returns, and must not be retained (or used from
// another ULT) past that point.
type Context struct {
	inst *Instance
	mh   *mercury.Handle
	fn   HandlerFunc
	// Self is the handler ULT, used for all cooperative operations.
	Self *abt.ULT

	rpcName string
	// What nested forwards inherit: the callpath ancestry and request
	// identity (when the request carried them) and the absolute
	// deadline.
	traced  bool
	bc      core.Breadcrumb
	reqID   uint64
	dlNanos int64

	t5        time.Time
	responded bool

	// Fixed by finish (t8) for the response-sent callback (t13), which
	// may run after the handler ULT has moved on to another request.
	stage       core.Stage
	ult         uint64
	t8          time.Time
	targetExec  time.Duration
	handlerWait time.Duration
	onSent      func(error) // == sent, bound once so responding never allocates

	// scratch is the request's bulk landing buffer (see Scratch), a
	// mercury arena held from the first Scratch call until the record is
	// recycled.
	scratch *[]byte

	// refs counts the two parties that still use the record: the
	// handler ULT (until the handler returns) and the t13 callback.
	refs atomic.Int32
}

// contextPool has no New func: sent recycles into the pool, so one
// that constructs Contexts would be an initialization cycle.
var contextPool sync.Pool

func acquireContext() *Context {
	if c, ok := contextPool.Get().(*Context); ok {
		return c
	}
	c := new(Context)
	c.onSent = c.sent
	return c
}

// unref drops one of the record's two users; the last one recycles it
// and destroys the Mercury handle the Context owned. A request whose
// response could not be sent never sees its t13 callback, and its record
// and handle are simply left to the GC.
func (c *Context) unref() {
	if c.refs.Add(-1) != 0 {
		return
	}
	c.mh.Destroy()
	if c.scratch != nil {
		mercury.PutArena(c.scratch, *c.scratch)
		c.scratch = nil
	}
	c.inst, c.mh, c.fn, c.Self = nil, nil, nil, nil
	c.responded = false
	contextPool.Put(c)
}

// Scratch returns the request's n-byte scratch buffer, contents
// unspecified: somewhere to land a bulk pull that is decoded and copied
// onward before the handler returns. It is recycled with the Context, so
// neither it nor a view decoded from it may outlive the handler, and a
// second call in one request reuses (and invalidates) the first's bytes.
func (c *Context) Scratch(n int) []byte {
	if c.scratch == nil {
		c.scratch = mercury.GetArena(n)
	}
	*c.scratch = slices.Grow((*c.scratch)[:0], n)[:n]
	return *c.scratch
}

// Origin returns the fabric address of the calling entity.
func (c *Context) Origin() string { return c.mh.Peer() }

// Deadline returns the absolute deadline propagated with the request,
// or the zero time when none was stamped.
func (c *Context) Deadline() time.Time {
	if c.dlNanos != 0 {
		return time.Unix(0, c.dlNanos)
	}
	return time.Time{}
}

// GetInput decodes the request arguments (charging the
// input_deserialization_time PVAR, t6→t7). v's byte slices are read-only
// views of the received frame, under the rule of the Context itself and
// of Scratch: valid until the handler returns. A service that keeps
// input bytes copies them.
func (c *Context) GetInput(v mercury.Procable) error { return c.mh.GetInput(v) }

// Compute models request execution work: it occupies the handler's
// execution stream for d without consuming host CPU (see abt). Backend
// costs in the service implementations are expressed through it.
func (c *Context) Compute(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// Forward issues a nested RPC from within the handler; the callpath
// breadcrumb, request ID and deadline of this request
// propagate automatically (paper §IV-A1).
func (c *Context) Forward(target, rpcName string, in, out mercury.Procable) error {
	return c.inst.Forward(c.Self, target, rpcName, in, out)
}

// BulkPull pulls remote data into buf, blocking the handler ULT.
func (c *Context) BulkPull(remote mercury.Bulk, off int, buf []byte) error {
	return c.inst.BulkPull(c.Self, remote, off, buf)
}

// BulkPush pushes buf into the remote region, blocking the handler ULT.
func (c *Context) BulkPush(remote mercury.Bulk, off int, buf []byte) error {
	return c.inst.BulkPush(c.Self, remote, off, buf)
}

// Respond sends the RPC response (t8) and completes the target-side
// measurements when Mercury reports the response handed to the network
// (t13): the target completion callback interval, the PVAR fusion, and
// the callpath profile entry.
func (c *Context) Respond(out mercury.Procable) error {
	return c.finish(respondOK, out, "")
}

// RespondError reports a handler failure to the origin. The terminal
// trace event carries Failed=true, so spans closed by an error response
// (including the panic-recovery path) stitch as failed executions
// rather than dangling or reading as successes.
func (c *Context) RespondError(format string, args ...any) error {
	return c.finish(respondError, nil, fmt.Sprintf(format, args...))
}

// respondKind selects which Mercury response finish sends.
type respondKind uint8

const (
	respondOK respondKind = iota
	respondError
	respondExpired
)

func (c *Context) finish(kind respondKind, out mercury.Procable, msg string) error {
	if c.responded {
		return fmt.Errorf("margo: double response for %s", c.rpcName)
	}
	c.responded = true
	i := c.inst
	c.stage = i.prof.Stage()

	c.t8 = time.Now()
	c.targetExec = c.t8.Sub(c.t5)
	c.handlerWait = c.Self.FirstRunTime().Sub(c.Self.SpawnTime())

	meta := mercury.Meta{}
	if c.stage.Injects() {
		meta = mercury.Meta{HasTrace: true, Order: i.prof.Clock.Tick()}
	}

	// ult keys this request's measurements to the handler ULT's shard:
	// handlers running concurrently on different execution streams
	// record without contending (t8, t13).
	c.ult = c.Self.ID()

	if c.stage.Measures() {
		ev := i.stamp(core.EvTargetEnd, c.t8, c.reqID, meta.Order, c.mh.Peer(), c.rpcName, c.bc, i.handlerPool)
		ev.Duration, ev.Failed = int64(c.targetExec), kind != respondOK
		i.prof.EmitSampled(c.ult, ev, nil, nil)
	}

	// From here the t13 callback is the record's second user.
	c.refs.Add(1)
	var err error
	switch kind {
	case respondOK:
		err = c.mh.Respond(out, meta, c.onSent)
	case respondError:
		err = c.mh.RespondError(msg, meta, c.onSent)
	default:
		err = c.mh.RespondExpired(meta, c.onSent)
	}
	return err
}

// sent is the response-sent callback (t13): the response has been
// handed to the network. The profile entry is recorded even when the
// send failed (e.g. the reverse link partitioned): the handler did
// execute, and dropping its measurement would hide exactly the requests
// a fault campaign cares about.
func (c *Context) sent(error) {
	if c.stage.Measures() {
		i := c.inst
		var comps [core.NumComponents]uint64
		comps[core.CompTargetExec] = uint64(c.targetExec)
		comps[core.CompHandler] = uint64(c.handlerWait)
		comps[core.CompTargetCB] = uint64(time.Since(c.t8))
		var pv core.PVarSample
		if i.samplePVars(c.stage, &pv, c.mh) != nil {
			comps[core.CompInputDeser] = pv.InputDeserNanos
			comps[core.CompOutputSer] = pv.OutputSerNanos
			comps[core.CompRDMA] = pv.RDMANanos
		}
		i.prof.RecordTargetAt(c.ult, c.bc, c.mh.Peer(), c.targetExec, &comps)
	}
	c.unref()
}

// Register installs a server-side RPC handler. Each incoming request
// spawns a new ULT into the handler pool (t4); the delay until an
// execution stream picks it up is the target ULT handler time (t4→t5),
// the saturation signal of the paper's Figure 9.
func (i *Instance) Register(rpcName string, fn HandlerFunc) error {
	if i.opts.Mode != ModeServer {
		return fmt.Errorf("margo: Register requires ModeServer")
	}
	if _, err := i.prof.Names().Register(rpcName); err != nil {
		return err
	}
	return i.hg.Register(rpcName, func(mh *mercury.Handle) {
		// Running in the progress ULT's Trigger pass. Admission control
		// happens here, before a handler ULT exists: the progress ULT is
		// the single spawner, so the verdict and the in-flight increment
		// cannot race with another admission. Refused requests are
		// answered immediately (t4) instead of queueing.
		if v := i.admitVerdict(mh.Meta()); v != admitOK {
			i.rejectRequest(mh, rpcName, v)
			return
		}
		i.handlersInFlight.Add(1)
		// Spawn the handler ULT (t4) detached and return immediately:
		// nothing joins handler ULTs, so the scheduler recycles their
		// structs and goroutines, and the request's pooled Context rides
		// the ULT's data slot — steady-state dispatch allocates nothing.
		ctx := acquireContext()
		ctx.inst, ctx.mh, ctx.fn, ctx.rpcName = i, mh, fn, rpcName
		ctx.refs.Store(1)
		i.handlerPool.CreateDetachedWith(rpcName, runHandler, ctx)
	})
}

// runHandler is the handler ULT body: t5 onward. The ULT's data slot
// holds the request's Context for its whole life, which is also where
// nested forwards find the identity they inherit.
func runHandler(self *abt.ULT) {
	ctx := self.Data().(*Context)
	i, mh, rpcName := ctx.inst, ctx.mh, ctx.rpcName
	defer func() {
		self.SetData(nil)
		ctx.unref()
		i.handlersInFlight.Add(-1)
	}()
	stage := i.prof.Stage()
	meta := mh.Meta()

	ctx.Self = self
	ctx.traced = meta.HasTrace
	ctx.bc = core.Breadcrumb(meta.Breadcrumb)
	ctx.reqID = meta.RequestID
	// The absolute deadline propagates to nested forwards, so every hop
	// of a multi-tier request can make the same drop/serve decision
	// against the same clock.
	ctx.dlNanos = meta.DeadlineNanos
	ctx.t5 = time.Now()

	if meta.HasTrace {
		i.prof.Clock.Merge(meta.Order)
	}

	if stage.Measures() {
		ev := i.stamp(core.EvTargetStart, ctx.t5, ctx.reqID, i.prof.Clock.Now(), mh.Peer(), rpcName, ctx.bc, i.handlerPool)
		// The t4→t5 pool wait rides the t5 event so per-request analysis
		// can attribute queueing (the critical-path "queue" segment)
		// without the aggregate profile.
		ev.QueueNanos = int64(self.FirstRunTime().Sub(self.SpawnTime()))
		// The handler ULT's shard receives the t5 event and, in finish,
		// the t8/t13 measurements — the PVAR sample fused here rides the
		// same shard rather than a side channel.
		var pv core.PVarSample
		i.prof.EmitSampled(self.ID(), ev, i.samplePVars(stage, &pv, mh), nil)
	}

	if meta.DeadlineNanos != 0 && time.Now().UnixNano() > meta.DeadlineNanos {
		// The deadline passed while the request waited in the handler
		// pool (t4→t5): the origin has given up, so executing the
		// handler would burn the execution stream on doomed work. The
		// EvTargetStart above plus finish's Failed EvTargetEnd close the
		// span, showing the queue wait that killed the request.
		i.expiredTotal.Add(1)
		_ = ctx.finish(respondExpired, nil, "")
		return
	}

	func() {
		defer func() {
			if r := recover(); r != nil && !ctx.responded {
				// A panicking handler must still answer the origin, or
				// its ULT would stay parked forever.
				ctx.RespondError("margo: handler for %s panicked: %v", rpcName, r)
			}
		}()
		ctx.fn(ctx)
	}()

	if !ctx.responded {
		// A handler that forgot to respond would leave the origin
		// parked forever; fail loudly instead.
		ctx.RespondError("margo: handler for %s returned without responding", rpcName)
	}
}
