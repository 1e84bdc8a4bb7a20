package margo

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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
// the completion callback leaves for it, and the per-try timeout state.
// Records are pooled; the Mercury handle (or bulk op) carries the
// pointer, so completing a call takes no closure and boxes no value.
type originCall struct {
	ev  abt.Eventual
	err error
	t14 time.Time

	// mh is the handle the armed timer cancels; the timer holds a
	// reference to it from arm until a successful Stop or until it has
	// fired, so a late timeout finds this call's handle, never the one
	// its memory serves next. timerFired disambiguates this call's own
	// deadline from an external cancellation: the store happens before
	// Cancel enqueues the completion, so when the wait observes
	// ErrCanceled caused by the timer, the flag is already visible. If a
	// genuine response races the timer, completeForward's CAS lets
	// exactly one of them win — a late timer then cancels an
	// already-completed handle, a no-op.
	mh         *mercury.Handle
	timer      *time.Timer
	onTimeout  func() // == timeout, bound once so arming never allocates
	timerFired atomic.Bool
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
	c.timerFired.Store(true)
	c.mh.Cancel()
	c.mh.Unref()
}

// release returns the record to the pool once the issuing ULT is done
// with it. A record whose timer was armed for this use (mh is set) is
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
	c.timerFired.Store(false)
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
func (i *Instance) Forward(self *abt.ULT, target, rpcName string, in, out mercury.Procable) error {
	return i.forward(self, target, rpcName, in, out, ForwardOpts{})
}

// ForwardOpts carries the per-call options of ForwardEx.
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
	// Priority is the request's admission class (see
	// OverloadPolicy.HighPriority); zero inherits the servicing
	// handler's priority, if any.
	Priority uint8
}

// ForwardEx is Forward with per-call options: a client-side timeout,
// a propagated absolute deadline and an admission priority. A handler
// issuing nested forwards inherits its own request's deadline and
// priority automatically even through plain Forward; ForwardEx is how
// the first hop stamps them.
func (i *Instance) ForwardEx(self *abt.ULT, target, rpcName string, in, out mercury.Procable, opts ForwardOpts) error {
	return i.forward(self, target, rpcName, in, out, opts)
}

func (i *Instance) forward(self *abt.ULT, target, rpcName string, in, out mercury.Procable, opts ForwardOpts) error {
	if self == nil {
		return fmt.Errorf("margo: Forward requires the calling ULT")
	}
	stage := i.prof.Stage()

	// Extend the callpath ancestry: the parent breadcrumb and request
	// ID come from the request the calling ULT is servicing when this
	// call is made from inside a handler (paper §IV-A1). Both are fixed
	// before the attempt loop so every retry of this forward carries
	// the same request ID — retried attempts stitch into one trace
	// instead of appearing as unrelated requests. Deadline and priority
	// resolve the same way: explicit options win, then the values the
	// servicing handler inherited from its own request — so a
	// multi-tier request carries one absolute deadline across every
	// hop.
	bc, reqID, dlNanos, prio := i.inherit(self, rpcName, stage)
	if !opts.Deadline.IsZero() {
		dlNanos = opts.Deadline.UnixNano()
	}
	if opts.Priority != 0 {
		prio = opts.Priority
	}

	// One in-flight slot per logical forward, however many attempts it
	// takes; the deferred decrement cannot be lost to an early return.
	i.rpcsInFlight.Add(1)
	defer i.rpcDone(1)

	timeout := opts.Timeout
	if dlNanos != 0 {
		// The propagated deadline also bounds the call client-side:
		// waiting past it can only return an expiry.
		remaining := time.Until(time.Unix(0, dlNanos))
		if timeout <= 0 || remaining < timeout {
			timeout = remaining
		}
		if timeout <= 0 {
			i.exhaustedTotal.Add(1)
			return exhausted(ErrDeadlineExceeded, rpcName, target, 0, mercury.ErrDeadlineExpired)
		}
	}

	rs := i.retry
	if rs == nil {
		err, _ := i.forwardOnce(self, target, rpcName, in, out, timeout, stage, bc, reqID, dlNanos, prio)
		return err
	}

	var deadline time.Time
	if timeout > 0 {
		// Under a retry policy ForwardOpts.Timeout bounds the whole attempt
		// sequence; PerTryTimeout bounds each attempt within it.
		deadline = time.Now().Add(timeout)
	}
	br := i.breakerFor(target, rpcName)
	var lastErr error
	for attempt := 0; ; attempt++ {
		tryTimeout := rs.pol.PerTryTimeout
		if !deadline.IsZero() {
			remaining := time.Until(deadline)
			if remaining <= 0 {
				i.exhaustedTotal.Add(1)
				return exhausted(ErrDeadlineExceeded, rpcName, target, attempt, lastErr)
			}
			if tryTimeout <= 0 || remaining < tryTimeout {
				tryTimeout = remaining
			}
		}
		var err error
		var timedOut bool
		if br != nil && !br.allow(time.Now()) {
			// Open circuit: refuse locally without touching the network.
			// The error is retryable, so the backoff below waits out the
			// cooldown and a later attempt becomes the half-open probe.
			i.breakerFastFailsTotal.Add(1)
			err = fmt.Errorf("%w: %s to %s", ErrCircuitOpen, rpcName, target)
		} else {
			err, timedOut = i.forwardOnce(self, target, rpcName, in, out, tryTimeout, stage, bc, reqID, dlNanos, prio)
			if br != nil && br.record(time.Now(), err != nil, overloadClass(err, timedOut)) {
				i.breakerTripsTotal.Add(1)
			}
		}
		if err == nil {
			rs.success()
			return nil
		}
		lastErr = err
		if !i.retryable(err, timedOut, rpcName) {
			return err
		}
		if attempt+1 >= rs.pol.MaxAttempts {
			i.exhaustedTotal.Add(1)
			return exhausted(ErrDeadlineExceeded, rpcName, target, attempt+1, lastErr)
		}
		if !rs.allow() {
			i.exhaustedTotal.Add(1)
			return exhausted(ErrRetryBudgetExhausted, rpcName, target, attempt+1, lastErr)
		}
		backoff := rs.backoff(attempt)
		if !deadline.IsZero() {
			if remaining := time.Until(deadline); backoff > remaining {
				backoff = remaining
			}
		}
		if backoff > 0 {
			self.Sleep(backoff)
		}
		i.retriesTotal.Add(1)
	}
}

// inherit resolves the identity a forward of rpcName issued by self
// carries. When self is a handler ULT its data slot holds the Context of
// the request it is servicing: the forward extends that request's
// breadcrumb and keeps its request ID, deadline and priority. Otherwise
// it is a root: empty ancestry, and a fresh request ID when tracing.
func (i *Instance) inherit(self *abt.ULT, rpcName string, stage core.Stage) (bc core.Breadcrumb, reqID uint64, dlNanos int64, prio uint8) {
	parent, _ := self.Data().(*Context)
	if parent != nil {
		dlNanos, prio = parent.dlNanos, parent.prio
	}
	if parent != nil && parent.traced {
		bc, reqID = parent.bc, parent.reqID
	} else if stage.Injects() {
		reqID = i.prof.NewRequestID()
	}
	return bc.Push(rpcName), reqID, dlNanos, prio
}

// forwardOnce issues a single attempt of a forward. timedOut reports
// that this attempt's own per-try timer (not an external CancelPosted)
// canceled the handle — the disambiguation the retry classifier needs,
// since both surface as mercury.ErrCanceled.
func (i *Instance) forwardOnce(self *abt.ULT, target, rpcName string, in, out mercury.Procable, timeout time.Duration, stage core.Stage, bc core.Breadcrumb, reqID uint64, dlNanos int64, prio uint8) (error, bool) {
	mh, err := i.hg.Create(target, rpcName)
	if err != nil {
		return err, false
	}
	defer mh.Destroy()

	meta := mercury.Meta{}
	if stage.Injects() {
		meta = mercury.Meta{
			HasTrace:   true,
			Breadcrumb: uint64(bc),
			RequestID:  reqID,
			Order:      i.prof.Clock.Tick(),
		}
	}
	// Deadline and priority are control-plane state, stamped regardless
	// of the measurement stage.
	meta.DeadlineNanos = dlNanos
	meta.Priority = prio

	t1 := time.Now()
	if stage.Measures() {
		ev := core.Event{
			RequestID:  reqID,
			Order:      meta.Order,
			Kind:       core.EvOriginStart,
			Timestamp:  i.prof.StampNanos(t1),
			Entity:     i.Addr(),
			Peer:       target,
			RPCName:    rpcName,
			Breadcrumb: uint64(bc),
			Sys:        i.sysSample(i.mainPool),
		}
		// Record into the calling ULT's collector shard: concurrent
		// application ULTs on different execution streams take disjoint
		// locks (t1).
		var pv core.PVarSample
		i.prof.EmitSampled(self.ID(), ev, i.samplePVars(stage, &pv, nil), nil)
	}

	c := callPool.Get().(*originCall)
	mh.SetData(c)
	if err = mh.Forward(in, meta, forwardDone); err != nil {
		c.release()
		return err, false
	}
	if timeout > 0 {
		c.arm(mh, timeout)
	}
	c.ev.Wait(self)
	resErr, t14 := c.err, c.t14
	timedOut := c.timerFired.Load() && errors.Is(resErr, mercury.ErrCanceled)
	c.release()
	if timedOut {
		i.timeoutsTotal.Add(1)
	} else if errors.Is(resErr, mercury.ErrCanceled) {
		i.cancelsTotal.Add(1)
	}

	if stage.Injects() {
		if rm := mh.RespMeta(); rm.HasTrace {
			i.prof.Clock.Merge(rm.Order)
		}
	}

	if resErr == nil && out != nil {
		resErr = mh.GetOutput(out)
	}

	if stage.Measures() {
		originExec := t14.Sub(t1)
		// comps and pvs stay on this stack: the profile folds comps in
		// and the collector copies what the event carries.
		var comps [core.NumComponents]uint64
		comps[core.CompOriginExec] = uint64(originExec)
		var pvs core.PVarSample
		pv := i.samplePVars(stage, &pvs, mh)
		if pv != nil {
			comps[core.CompInputSer] = pv.InputSerNanos
			comps[core.CompOriginCB] = pv.OriginCBNanos
		}
		i.prof.RecordOriginAt(self.ID(), bc, target, originExec, &comps)
		endOrder := meta.Order
		if stage.Injects() {
			endOrder = i.prof.Clock.Tick()
		}
		i.prof.EmitSampled(self.ID(), core.Event{
			RequestID:  reqID,
			Order:      endOrder,
			Kind:       core.EvOriginEnd,
			Timestamp:  i.prof.StampNanos(t14),
			Entity:     i.Addr(),
			Peer:       target,
			RPCName:    rpcName,
			Breadcrumb: uint64(bc),
			Duration:   int64(originExec),
			Failed:     resErr != nil,
			Sys:        i.sysSample(i.mainPool),
		}, pv, &comps)
	}
	return resErr, timedOut
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
