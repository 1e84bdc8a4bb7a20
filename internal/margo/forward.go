package margo

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/core"
	"symbiosys/internal/mercury"
)

// RegisterClient declares RPC names this instance will forward, wiring
// them into Mercury and the breadcrumb name registry.
func (i *Instance) RegisterClient(rpcNames ...string) error {
	for _, name := range rpcNames {
		if err := i.hg.Register(name, nil); err != nil {
			return err
		}
		if _, err := i.prof.Names().Register(name); err != nil {
			return err
		}
	}
	return nil
}

// originCall is the origin-side record of one forward attempt or bulk
// transfer in flight: the eventual the issuing ULT parks on, the result
// the completion callback leaves for it, and the per-try timeout state
// (all a window's flight uses of it: nobody parks on a vectored
// forward). Records are pooled; the Mercury handle (or bulk op, or the
// flight) carries the pointer, so completing a call takes no closure and
// boxes no value.
type originCall struct {
	ev  abt.Eventual
	err error
	t14 time.Time

	// mh is the handle the armed timer cancels; the timer holds a
	// reference to it from arm until a successful Stop or until it has
	// fired, so a late timeout finds this call's handle, never the one
	// its memory serves next. The timer is the only caller of Cancel, so
	// an attempt that ends in mercury.ErrCanceled timed out. If a
	// genuine response races the timer, completeForward's CAS lets
	// exactly one of them win — a late timer then cancels an
	// already-completed handle, a no-op.
	mh        *mercury.Handle
	timer     *time.Timer
	onTimeout func() // == timeout, bound once so arming never allocates
}

var callPool = sync.Pool{New: func() any {
	c := new(originCall)
	c.onTimeout = c.timeout
	return c
}}

// arm starts the per-try timer against mh.
func (c *originCall) arm(mh *mercury.Handle, d time.Duration) {
	mh.Ref()
	c.mh = mh
	if c.timer == nil {
		c.timer = time.AfterFunc(d, c.onTimeout)
	} else {
		c.timer.Reset(d)
	}
}

func (c *originCall) timeout() {
	c.mh.Cancel()
	c.mh.Unref()
}

// release returns the record to the pool once its issuer is done with
// it. A record whose timer was armed for this use (mh is set) is
// reused only if Stop reports that the timer had not fired and now
// never will, and the timer's handle reference is given back here;
// otherwise the timer func gives it back itself and the record is left
// to the GC, because the func may still be reading it.
func (c *originCall) release() {
	if c.mh != nil {
		if !c.timer.Stop() {
			return
		}
		c.mh.Unref()
	}
	c.ev.Reset()
	c.err, c.mh = nil, nil
	callPool.Put(c)
}

// forwardDone is the Mercury completion callback of every forward: it
// runs at t14 in the progress ULT's Trigger pass and wakes the issuer.
func forwardDone(h *mercury.Handle, err error) {
	c := h.Data().(*originCall)
	c.err, c.t14 = err, time.Now()
	c.ev.Set(nil)
}

// bulkDone is forwardDone for bulk transfers.
func bulkDone(arg any, err error) {
	c := arg.(*originCall)
	c.err = err
	c.ev.Set(nil)
}

// ForwardOpts carries the per-call options of Forward.
type ForwardOpts struct {
	// Timeout bounds the whole call client-side: if no response arrives
	// within it the handle is canceled and the call returns
	// mercury.ErrCanceled. Use it against services that may have failed
	// after receiving the request (a send failure is already reported
	// without a timeout). Nothing extra is stamped on the wire.
	Timeout time.Duration
	// Deadline, when non-zero, is stamped into the wire header as the
	// request's absolute deadline: the target rejects the request with
	// mercury.ErrDeadlineExpired if it passes before a handler runs,
	// and handlers propagate it onto their nested forwards. It also
	// bounds the call client-side, like Timeout.
	Deadline time.Time
}

// originOp is the origin half of one logical RPC, t1 to t14 of Figure 2,
// whichever way it travels: the identity it carries on the wire and in
// the trace, fixed once so that every attempt stitches into one request,
// and the t1 of the span being measured. A single forward keeps one on
// its stack and stamps a span per attempt; a window member embeds one in
// its pooled batchOp and stamps a single span for the logical op.
type originOp struct {
	ult     uint64 // issuing ULT: the Profiler shard of t1 and t14
	reqID   uint64
	bc      core.Breadcrumb
	order   uint64 // Lamport order stamped at t1
	t1      time.Time
	dlNanos int64
}

// beginOp resolves, once per logical op, the identity a forward of
// rpcName issued by self carries. When self is a handler ULT its data
// slot holds the Context of the request it is servicing: the forward
// extends that request's breadcrumb and keeps its request ID and
// deadline, so a multi-tier request carries one ID and one absolute
// deadline across every hop (paper §IV-A1). Otherwise it is a root:
// empty ancestry, and a fresh request ID when tracing. Explicit options
// win over inherited values. It returns the client-side bound on the
// whole call (zero for none; the deadline bounds it like a timeout,
// since waiting past it can only return an expiry) and refuses an op
// whose deadline has already passed.
func (i *Instance) beginOp(op *originOp, self *abt.ULT, stage core.Stage, target, rpcName string, opts ForwardOpts) (time.Duration, error) {
	*op = originOp{ult: self.ID()}
	if !opts.Deadline.IsZero() {
		op.dlNanos = opts.Deadline.UnixNano()
	}
	parent, _ := self.Data().(*Context)
	if parent != nil && op.dlNanos == 0 {
		op.dlNanos = parent.dlNanos
	}
	if parent != nil && parent.traced {
		op.bc, op.reqID = parent.bc, parent.reqID
	} else if stage.Injects() {
		op.reqID = i.prof.NewRequestID()
	}
	op.bc = op.bc.Push(rpcName)

	timeout := opts.Timeout
	if op.dlNanos != 0 {
		remaining := time.Until(time.Unix(0, op.dlNanos))
		if timeout <= 0 || remaining < timeout {
			timeout = remaining
		}
		if timeout <= 0 {
			i.exhaustedTotal.Add(1)
			return 0, exhausted(ErrDeadlineExceeded, rpcName, target, 0, mercury.ErrDeadlineExpired)
		}
	}
	return timeout, nil
}

// originStart stamps t1 of op's next span: it ticks the Lamport clock,
// builds the metadata the request carries and emits EvOriginStart into
// the issuing ULT's Profiler shard, so concurrent application ULTs on
// different execution streams take disjoint locks. sampled says whether
// the global PVAR sample rides the event.
func (i *Instance) originStart(op *originOp, stage core.Stage, target, rpcName string, sampled bool) mercury.Meta {
	// The deadline is control-plane state, stamped regardless of the
	// measurement stage.
	meta := mercury.Meta{DeadlineNanos: op.dlNanos}
	if stage.Injects() {
		meta.HasTrace = true
		meta.Breadcrumb = uint64(op.bc)
		meta.RequestID = op.reqID
		meta.Order = i.prof.Clock.Tick()
	}
	op.order = meta.Order
	op.t1 = time.Now()
	if stage.Measures() {
		var pvs core.PVarSample
		var pv *core.PVarSample
		if sampled {
			pv = i.samplePVars(stage, &pvs, nil)
		}
		i.prof.EmitSampled(op.ult, i.stamp(core.EvOriginStart, op.t1, op.reqID, op.order, target, rpcName, op.bc, i.mainPool), pv, nil)
	}
	return meta
}

// originEnd closes at t14 the span originStart opened: the origin
// execution time goes to the callpath profile and EvOriginEnd to the
// trace. mh, when non-nil, is the handle whose bound PVARs (input
// serialization, origin callback delay) are fused into both; batchID
// and window are zero for a single forward. Everything it builds stays
// on this stack: the profile folds comps in and the Profiler copies
// what the event carries.
func (i *Instance) originEnd(op *originOp, stage core.Stage, target, rpcName string, t14 time.Time, failed bool, mh *mercury.Handle, batchID uint64, window int64) {
	if !stage.Measures() {
		return
	}
	originExec := t14.Sub(op.t1)
	var comps [core.NumComponents]uint64
	comps[core.CompOriginExec] = uint64(originExec)
	var pvs core.PVarSample
	var pv *core.PVarSample
	if mh != nil {
		if pv = i.samplePVars(stage, &pvs, mh); pv != nil {
			comps[core.CompInputSer] = pv.InputSerNanos
			comps[core.CompOriginCB] = pv.OriginCBNanos
		}
	}
	i.prof.RecordOriginAt(op.ult, op.bc, target, originExec, &comps)
	order := op.order
	if stage.Injects() {
		order = i.prof.Clock.Tick()
	}
	ev := i.stamp(core.EvOriginEnd, t14, op.reqID, order, target, rpcName, op.bc, i.mainPool)
	ev.Duration, ev.Failed = int64(originExec), failed
	ev.BatchID, ev.WindowNanos = batchID, window
	i.prof.EmitSampled(op.ult, ev, pv, &comps)
}

// admit asks the circuit, before an attempt touches the network,
// whether it may go. An open circuit refuses locally.
func (i *Instance) admit(br *breaker, target, rpcName string) error {
	if br == nil || br.allow(time.Now()) {
		return nil
	}
	i.breakerFastFailsTotal.Add(1)
	return fmt.Errorf("%w: %s to %s", ErrCircuitOpen, rpcName, target)
}

// attemptDone is the verdict on one finished attempt. Only the
// attempt's own per-try timer cancels a handle, so mercury.ErrCanceled
// means the attempt timed out. The outcome is counted, fed to the
// circuit and, on success, refills the retry budget.
func (i *Instance) attemptDone(br *breaker, err error) (timedOut bool) {
	if timedOut = errors.Is(err, mercury.ErrCanceled); timedOut {
		i.timeoutsTotal.Add(1)
	}
	if br != nil && br.record(time.Now(), err != nil, overloadClass(err, timedOut)) {
		i.breakerTripsTotal.Add(1)
	}
	if err == nil && i.retry != nil {
		i.retry.success()
	}
	return timedOut
}

// retryVerdict decides what follows attempt number attempt (0-based)
// having failed with err: final is the error the caller returns — err
// itself when it is not retryable or no policy is installed, the
// exhausted marker wrapping it when attempts or retry budget ran out —
// and nil when the attempt is to be re-issued after backoff.
func (i *Instance) retryVerdict(target, rpcName string, attempt int, err error, timedOut bool) (backoff time.Duration, final error) {
	rs := i.retry
	if rs == nil || !i.retryable(err, timedOut, rpcName) {
		return 0, err
	}
	kind := ErrDeadlineExceeded
	if attempt+1 < rs.pol.MaxAttempts {
		if rs.allow() {
			i.retriesTotal.Add(1)
			return rs.backoff(attempt), nil
		}
		kind = ErrRetryBudgetExhausted
	}
	i.exhaustedTotal.Add(1)
	return 0, exhausted(kind, rpcName, target, attempt+1, err)
}

// Forward issues one blocking RPC from the calling ULT: it serializes
// in, sends the request, parks the ULT until the response callback
// fires, and decodes the response into out (pass nil to skip decoding).
//
// This is the origin half of the paper's Figure 2 pipeline. Margo
// records t1 before handing the request to Mercury and captures t14
// inside the completion callback; the difference is the origin execution
// time, attributed to the callpath breadcrumb. At Full stage the
// origin-side PVARs (input serialization, origin completion callback
// delay) are sampled off the Mercury handle at t14 and fused into the
// same profile entry (paper §IV-C).
//
// opts, at most one, carries the per-call options: a client-side
// timeout and a propagated absolute deadline. A handler issuing nested
// forwards inherits its own request's deadline without them; opts is how
// the first hop stamps it.
func (i *Instance) Forward(self *abt.ULT, target, rpcName string, in, out mercury.Procable, opts ...ForwardOpts) error {
	if self == nil {
		return fmt.Errorf("margo: Forward requires the calling ULT")
	}
	var o ForwardOpts
	switch len(opts) {
	case 0:
	case 1:
		o = opts[0]
	default:
		return fmt.Errorf("margo: Forward takes at most one ForwardOpts, got %d", len(opts))
	}
	stage := i.prof.Stage()
	var op originOp
	timeout, err := i.beginOp(&op, self, stage, target, rpcName, o)
	if err != nil {
		return err
	}

	// One in-flight slot per logical forward, however many attempts it
	// takes; the deferred decrement cannot be lost to an early return.
	i.rpcsInFlight.Add(1)
	defer i.rpcDone(1)

	// The bound is on the whole attempt sequence; under a retry policy
	// PerTryTimeout bounds each attempt within it.
	tryTimeout := i.retry.tryTimeout(timeout)
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	br := i.breakerFor(target, rpcName)
	for attempt := 0; ; attempt++ {
		// An open circuit refuses without touching the network. To a
		// parked ULT that is retryable: the backoff below waits out the
		// cooldown and a later attempt becomes the half-open probe.
		timedOut := false
		if err = i.admit(br, target, rpcName); err == nil {
			err = i.forwardOnce(self, &op, target, rpcName, in, out, tryTimeout, stage)
			timedOut = i.attemptDone(br, err)
			if err == nil {
				return nil
			}
		}
		backoff, final := i.retryVerdict(target, rpcName, attempt, err, timedOut)
		if final != nil {
			return final
		}
		if !deadline.IsZero() {
			backoff = min(backoff, time.Until(deadline))
		}
		if backoff > 0 {
			self.Sleep(backoff)
		}
		if !deadline.IsZero() {
			remaining := time.Until(deadline)
			if remaining <= 0 {
				i.exhaustedTotal.Add(1)
				return exhausted(ErrDeadlineExceeded, rpcName, target, attempt+1, err)
			}
			tryTimeout = i.retry.tryTimeout(remaining)
		}
	}
}

// forwardOnce issues a single attempt of a forward and stamps its span.
func (i *Instance) forwardOnce(self *abt.ULT, op *originOp, target, rpcName string, in, out mercury.Procable, timeout time.Duration, stage core.Stage) error {
	mh, err := i.hg.Create(target, rpcName)
	if err != nil {
		return err
	}
	defer mh.Destroy()

	meta := i.originStart(op, stage, target, rpcName, true)
	c := callPool.Get().(*originCall)
	mh.SetData(c)
	if err = mh.Forward(in, meta, forwardDone); err != nil {
		c.release()
		// t1 is stamped: a request that never left still closes its span.
		i.originEnd(op, stage, target, rpcName, time.Now(), true, mh, 0, 0)
		return err
	}
	if timeout > 0 {
		c.arm(mh, timeout)
	}
	c.ev.Wait(self)
	err, t14 := c.err, c.t14
	c.release()

	if stage.Injects() {
		if rm := mh.RespMeta(); rm.HasTrace {
			i.prof.Clock.Merge(rm.Order)
		}
	}
	if err == nil && out != nil {
		err = mh.GetOutput(out)
	}
	i.originEnd(op, stage, target, rpcName, t14, err != nil, mh, 0, 0)
	return err
}

// BulkCreate exposes buf for one-sided transfers.
func (i *Instance) BulkCreate(buf []byte) mercury.Bulk { return i.hg.BulkCreate(buf) }

// BulkFree revokes a bulk descriptor.
func (i *Instance) BulkFree(b mercury.Bulk) { i.hg.BulkFree(b) }

// BulkPull blocks the calling ULT while pulling remote[off:off+len(buf)]
// into buf — the target-side path of sdskv_put_packed and BAKE writes.
func (i *Instance) BulkPull(self *abt.ULT, remote mercury.Bulk, off int, buf []byte) error {
	return i.bulkWait(self, remote, off, buf, false)
}

// BulkPush blocks the calling ULT while pushing buf to the remote
// region — the path of BAKE reads back to client memory.
func (i *Instance) BulkPush(self *abt.ULT, remote mercury.Bulk, off int, buf []byte) error {
	return i.bulkWait(self, remote, off, buf, true)
}

func (i *Instance) bulkWait(self *abt.ULT, remote mercury.Bulk, off int, buf []byte, push bool) error {
	c := callPool.Get().(*originCall)
	var err error
	if push {
		err = i.hg.BulkPush(remote, off, buf, bulkDone, c)
	} else {
		err = i.hg.BulkPull(remote, off, buf, bulkDone, c)
	}
	if err == nil {
		c.ev.Wait(self)
		err = c.err
	}
	c.release()
	return err
}
