package margo

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/batch"
	"symbiosys/internal/core"
	"symbiosys/internal/mercury"
)

// This file is the client-side coalescer (ISSUE 6 tentpole, layer 2):
// same-(target, RPC) forwards accumulate in an adaptive batch window
// and leave as one vectored mercury.ForwardBatch; the per-entry reply
// statuses fan back out to the waiting ULTs. The window flushes when it
// fills (ops or bytes), when its adaptive delay elapses, when a
// member's propagated deadline makes waiting dangerous, or when the
// instance drains. Retry semantics are batch-aware: failures the fabric
// reported before delivery retry the whole batch, ambiguous failures
// (per-try timeouts) retry only when the RPC is idempotent — a window
// only ever holds one RPC name, so "retry the idempotent members"
// reduces to a per-window decision — and per-entry verdicts from the
// target (shed, expired, handler error) are final. The breaker is
// consulted once per flush: an open circuit fast-fails the entire
// window, and one outcome per attempt feeds the circuit.

// Batch-coalescer PVAR names, exported like the resilience counters.
const (
	PVarNumBatchesFlushed = "num_batches_flushed"
	PVarNumBatchedOps     = "num_batched_ops"
	PVarNumBatchRetries   = "num_batch_retries"
	PVarBatchOccupancy    = "batch_window_occupancy"
)

// batchOp is one coalesced forward waiting for its window to complete.
// Ops are pooled; everything here is overwritten on acquire.
type batchOp struct {
	out   mercury.Procable
	res   *error   // caller's per-op error slot
	group *opGroup // completion group of the issuing call

	// Per-op trace identity (one t1–t14 chain per logical op).
	ultID   uint64
	reqID   uint64
	bc      core.Breadcrumb
	order   uint64
	t1      time.Time
	dlNanos int64
	prio    uint8
}

var batchOpPool = sync.Pool{New: func() any { return new(batchOp) }}

// opGroup completes one ForwardMany call: the issuing ULT parks on ev
// until every member op has fanned back in.
type opGroup struct {
	ev        abt.Eventual
	remaining atomic.Int32
}

// done retires one member; the last one wakes the issuer.
func (g *opGroup) done() {
	if g.remaining.Add(-1) == 0 {
		g.ev.Set(nil)
	}
}

// opsSlicePool recycles the per-window member slices.
var opsSlicePool = sync.Pool{New: func() any {
	s := make([]*batchOp, 0, 64)
	return &s
}}

// coalescer owns one (target, RPC) batch window.
type coalescer struct {
	i      *Instance
	target string
	rpc    string

	mu      sync.Mutex
	win     batch.Window
	builder *mercury.BatchBuilder
	ops     []*batchOp
	opsBox  *[]*batchOp
	timer   *time.Timer
	timerAt int64  // unix nanos the armed timer fires at (0 = unarmed)
	gen     uint64 // window generation, invalidates stale timer fires
}

// coalescerFor returns (lazily creating) the window for one (target,
// RPC) pair. Callers have already checked that batching is enabled.
func (i *Instance) coalescerFor(target, rpcName string) *coalescer {
	key := breakerKey{target: target, rpc: rpcName}
	i.coalMu.Lock()
	defer i.coalMu.Unlock()
	if i.coals == nil {
		i.coals = make(map[breakerKey]*coalescer)
	}
	co := i.coals[key]
	if co == nil {
		co = &coalescer{i: i, target: target, rpc: rpcName}
		i.coals[key] = co
	}
	return co
}

// ForwardMany issues a multi-op workload through the coalescer and
// returns one error per op (nil on success). outs may be nil (no
// decoding) or must have one (possibly nil) entry per input. The call
// blocks until every member completed. Without Options.Batch the ops
// are forwarded sequentially — same results, none of the coalescing.
func (i *Instance) ForwardMany(self *abt.ULT, target, rpcName string, ins, outs []mercury.Procable) []error {
	errs := make([]error, len(ins))
	if len(ins) == 0 {
		return errs
	}
	if outs != nil && len(outs) != len(ins) {
		for k := range errs {
			errs[k] = fmt.Errorf("margo: ForwardMany outs length %d != ins length %d", len(outs), len(ins))
		}
		return errs
	}
	if self == nil {
		for k := range errs {
			errs[k] = fmt.Errorf("margo: ForwardMany requires the calling ULT")
		}
		return errs
	}
	if i.batchPol == nil {
		for k := range ins {
			var out mercury.Procable
			if outs != nil {
				out = outs[k]
			}
			errs[k] = i.Forward(self, target, rpcName, ins[k], out)
		}
		return errs
	}
	i.rpcsInFlight.Add(int64(len(ins)))
	defer i.rpcDone(len(ins))
	co := i.coalescerFor(target, rpcName)
	group := new(opGroup)
	group.remaining.Store(int32(len(ins)))
	for k := range ins {
		var out mercury.Procable
		if outs != nil {
			out = outs[k]
		}
		if eerr := co.enqueue(self, ins[k], out, &errs[k], group); eerr != nil {
			errs[k] = eerr
			group.done()
		}
	}
	group.ev.Wait(self)
	return errs
}

// enqueue adds one op to the open window, opening a fresh one if
// needed, and flushes inline when the window fills. On the steady path
// (warm pools, window already open) it performs no allocations: the op
// comes from a pool, the builder's arena grows in place, and the window
// timer is reused via Reset. A returned error means the op was NOT
// enqueued and the caller owns the group accounting.
func (co *coalescer) enqueue(self *abt.ULT, in, out mercury.Procable, res *error, group *opGroup) error {
	i := co.i
	stage := i.prof.Stage()

	// Resolve the per-op identity exactly like forward(): breadcrumb
	// ancestry, request ID, and the inherited deadline/priority.
	bc, reqID, dlNanos, prio := i.inherit(self, co.rpc, stage)
	if dlNanos != 0 && time.Now().UnixNano() > dlNanos {
		// Already expired: fail without occupying a window slot.
		i.exhaustedTotal.Add(1)
		return fmt.Errorf("%w: %s", mercury.ErrDeadlineExpired, co.rpc)
	}

	op := batchOpPool.Get().(*batchOp)
	op.out, op.res, op.group = out, res, group
	op.ultID, op.reqID, op.bc = self.ID(), reqID, bc
	op.dlNanos, op.prio = dlNanos, prio

	meta := mercury.Meta{DeadlineNanos: dlNanos, Priority: prio}
	if stage.Injects() {
		meta.HasTrace = true
		meta.Breadcrumb = uint64(bc)
		meta.RequestID = reqID
		meta.Order = i.prof.Clock.Tick()
	}
	op.order = meta.Order

	op.t1 = time.Now()
	if stage.Measures() {
		// t1 for this logical op: it enters the coalescer window. The
		// matching EvOriginEnd (stamped with the batch ID at fan-out)
		// closes the chain.
		i.prof.EmitAt(self.ID(), core.Event{
			RequestID:  reqID,
			Order:      meta.Order,
			Kind:       core.EvOriginStart,
			Timestamp:  i.prof.StampNanos(op.t1),
			Entity:     i.Addr(),
			Peer:       co.target,
			RPCName:    co.rpc,
			Breadcrumb: uint64(bc),
			Sys:        i.sysSample(i.mainPool),
		})
	}

	pol := *i.batchPol
	co.mu.Lock()
	if co.builder == nil {
		co.builder = mercury.AcquireBatch()
		box := opsSlicePool.Get().(*[]*batchOp)
		co.opsBox, co.ops = box, (*box)[:0]
		co.win.Open(op.t1.UnixNano())
	}
	preBytes := co.builder.Bytes()
	if err := co.builder.Add(in, meta); err != nil {
		// Add rolled the builder back; the window keeps its other members.
		co.mu.Unlock()
		batchOpPool.Put(op)
		return fmt.Errorf("margo: encode batched input for %s: %w", co.rpc, err)
	}
	co.ops = append(co.ops, op)
	co.win.Add(co.builder.Bytes()-preBytes, dlNanos)

	if reason := pol.Due(&co.win); reason != batch.ReasonNone {
		fl := co.takeLocked(reason)
		co.mu.Unlock()
		i.sendBatch(fl, 0)
		return nil
	}
	co.armTimerLocked(pol)
	co.mu.Unlock()
	return nil
}

// armTimerLocked (re)schedules the window timer for the policy's flush
// instant. Reuses one timer per coalescer so steady-state enqueues do
// not allocate.
func (co *coalescer) armTimerLocked(pol batch.Policy) {
	at, _ := pol.FlushAt(&co.win)
	if co.timerAt != 0 && at >= co.timerAt {
		return // already armed at least as early
	}
	d := time.Duration(at - time.Now().UnixNano())
	if d < 0 {
		d = 0
	}
	if co.timer == nil {
		co.timer = time.AfterFunc(d, co.onTimer)
	} else {
		co.timer.Reset(d)
	}
	co.timerAt = at
}

// onTimer flushes the window whose arming generation is still current.
// It runs on a runtime timer goroutine, outside any ULT.
func (co *coalescer) onTimer() {
	co.mu.Lock()
	if co.builder == nil || co.builder.Count() == 0 {
		co.timerAt = 0
		co.mu.Unlock()
		return
	}
	_, reason := (*co.i.batchPol).FlushAt(&co.win)
	fl := co.takeLocked(reason)
	co.mu.Unlock()
	co.i.sendBatch(fl, 0)
}

// batchFlight is one in-flight vectored forward: the frozen window
// contents plus retry state. The builder stays alive (its bytes are
// re-sent on retry) until the flight fans out.
type batchFlight struct {
	co      *coalescer
	builder *mercury.BatchBuilder
	ops     []*batchOp
	opsBox  *[]*batchOp
	batchID uint64
	reason  batch.Reason
	// sentNanos is when the frame first left the process (or was
	// fast-failed by an open breaker): the end of the members'
	// batch-window wait, stamped as WindowNanos on their t14 events.
	sentNanos int64
}

// takeLocked freezes the open window into a flight and resets the
// coalescer for the next one.
func (co *coalescer) takeLocked(reason batch.Reason) *batchFlight {
	fl := &batchFlight{
		co:      co,
		builder: co.builder,
		ops:     co.ops,
		opsBox:  co.opsBox,
		batchID: co.i.batchSeq.Add(1),
		reason:  reason,
	}
	co.builder, co.ops, co.opsBox = nil, nil, nil
	co.gen++
	co.timerAt = 0
	if co.timer != nil {
		co.timer.Stop()
	}
	co.i.batchStats.RecordFlush(reason, fl.builder.Count(), fl.builder.Bytes())
	return fl
}

// sendBatch issues one attempt of a flight. It may be called from an
// application ULT (inline size flush), a timer goroutine (window
// flush), or the progress ULT (retry); none of them block.
func (i *Instance) sendBatch(fl *batchFlight, attempt int) {
	now := time.Now()
	if fl.sentNanos == 0 {
		fl.sentNanos = now.UnixNano()
	}
	br := i.breakerFor(fl.co.target, fl.co.rpc)
	if br != nil && !br.allow(now) {
		// Open circuit: the entire window fast-fails locally. The error
		// is final for these members — unlike the forward() loop there
		// is no ULT here to park through a cooldown backoff, and the
		// members' issuers are already parked expecting one verdict.
		i.breakerFastFailsTotal.Add(1)
		fl.complete(fmt.Errorf("%w: %s to %s", ErrCircuitOpen, fl.co.rpc, fl.co.target), now)
		return
	}
	mh, err := i.hg.Create(fl.co.target, fl.co.rpc)
	if err != nil {
		fl.complete(err, time.Now())
		return
	}
	var timerFired atomic.Bool
	var tryTimer *time.Timer
	if i.retry != nil && i.retry.pol.PerTryTimeout > 0 {
		// The timer holds a handle reference until it is stopped in time
		// or has fired, so a late timeout cancels this attempt's handle
		// (a no-op by then), never a recycled one.
		mh.Ref()
		tryTimer = time.AfterFunc(i.retry.pol.PerTryTimeout, func() {
			timerFired.Store(true)
			mh.Cancel()
			mh.Unref()
		})
	}
	stopTimer := func() {
		if tryTimer != nil && tryTimer.Stop() {
			mh.Unref()
		}
	}
	err = mh.ForwardBatch(fl.batchID, fl.builder, func(h *mercury.Handle, err error) {
		// Runs at t14 in the progress ULT's Trigger pass.
		stopTimer()
		t14 := time.Now()
		if err == nil {
			if br != nil {
				br.record(t14, false, false)
			}
			if i.retry != nil {
				i.retry.success()
			}
			fl.fanOut(h, t14)
			h.Destroy()
			return
		}
		timedOut := timerFired.Load() && errors.Is(err, mercury.ErrCanceled)
		if timedOut {
			i.timeoutsTotal.Add(1)
		} else if errors.Is(err, mercury.ErrCanceled) {
			i.cancelsTotal.Add(1)
		}
		if br != nil && br.record(t14, true, overloadClass(err, timedOut)) {
			i.breakerTripsTotal.Add(1)
		}
		h.Destroy()
		if i.retryBatch(fl, attempt, err, timedOut) {
			return
		}
		fl.complete(err, t14)
	})
	if err != nil {
		stopTimer()
		if br != nil && br.record(time.Now(), true, overloadClass(err, false)) {
			i.breakerTripsTotal.Add(1)
		}
		mh.Destroy()
		if i.retryBatch(fl, attempt, err, false) {
			return
		}
		fl.complete(err, time.Now())
	}
}

// retryBatch decides whether a failed attempt re-sends the flight and,
// if so, schedules it after the policy backoff. Ambiguous failures
// (timeouts: the batch may have executed) retry only when the window's
// RPC is idempotent; a window holds exactly one RPC name, so the
// ISSUE's "retry only the idempotent members" is a whole-window
// decision. Per-entry target verdicts never reach here — they arrive
// inside a successful exchange.
func (i *Instance) retryBatch(fl *batchFlight, attempt int, err error, timedOut bool) bool {
	rs := i.retry
	if rs == nil {
		return false
	}
	if !i.retryable(err, timedOut, fl.co.rpc) {
		return false
	}
	if attempt+1 >= rs.pol.MaxAttempts {
		i.exhaustedTotal.Add(1)
		return false
	}
	if !rs.allow() {
		i.exhaustedTotal.Add(1)
		return false
	}
	i.retriesTotal.Add(1)
	i.batchStats.RecordRetry()
	backoff := rs.backoff(attempt)
	if backoff <= 0 {
		backoff = time.Microsecond
	}
	time.AfterFunc(backoff, func() { i.sendBatch(fl, attempt+1) })
	return true
}

// fanOut distributes a successful exchange's per-entry verdicts to the
// waiting members: decode outputs, map per-entry statuses to the errors
// an unbatched Forward would return, stitch the per-op trace chains,
// and wake the issuers.
func (fl *batchFlight) fanOut(h *mercury.Handle, t14 time.Time) {
	i := fl.co.i
	if h.BatchLen() != len(fl.ops) {
		fl.complete(fmt.Errorf("margo: batch reply carries %d entries for %d ops", h.BatchLen(), len(fl.ops)), t14)
		return
	}
	stage := i.prof.Stage()
	for k, op := range fl.ops {
		err := h.BatchEntryErr(k)
		if stage.Injects() {
			if ord := h.BatchEntryOrder(k); ord != 0 {
				i.prof.Clock.Merge(ord)
			}
		}
		if err == nil && op.out != nil {
			err = h.BatchEntryOutput(k, op.out)
		}
		fl.completeOp(op, err, t14, stage)
	}
	fl.release()
}

// complete fails every member with the same transport-level error.
func (fl *batchFlight) complete(err error, t14 time.Time) {
	i := fl.co.i
	stage := i.prof.Stage()
	for _, op := range fl.ops {
		operr := err
		fl.completeOp(op, operr, t14, stage)
	}
	fl.release()
}

// completeOp finishes one member: trace end event (carrying the batch
// ID), callpath attribution, the caller's error slot, and the group
// countdown. The op returns to its pool.
func (fl *batchFlight) completeOp(op *batchOp, err error, t14 time.Time, stage core.Stage) {
	i := fl.co.i
	if stage.Measures() {
		originExec := t14.Sub(op.t1)
		var comps [core.NumComponents]uint64
		comps[core.CompOriginExec] = uint64(originExec)
		i.prof.RecordOriginAt(op.ultID, op.bc, fl.co.target, originExec, &comps)
		endOrder := op.order
		if stage.Injects() {
			endOrder = i.prof.Clock.Tick()
		}
		var window int64
		if fl.sentNanos > 0 {
			if w := fl.sentNanos - op.t1.UnixNano(); w > 0 {
				window = w
			}
		}
		i.prof.EmitSampled(op.ultID, core.Event{
			RequestID:   op.reqID,
			Order:       endOrder,
			Kind:        core.EvOriginEnd,
			Timestamp:   i.prof.StampNanos(t14),
			Entity:      i.Addr(),
			Peer:        fl.co.target,
			RPCName:     fl.co.rpc,
			Breadcrumb:  uint64(op.bc),
			Duration:    int64(originExec),
			Failed:      err != nil,
			BatchID:     fl.batchID,
			WindowNanos: window,
			Sys:         i.sysSample(i.mainPool),
		}, nil, &comps)
	}
	*op.res = err
	group := op.group
	op.out, op.res, op.group = nil, nil, nil
	batchOpPool.Put(op)
	group.done()
}

// release returns the flight's window resources to their pools.
func (fl *batchFlight) release() {
	fl.builder.Release()
	for k := range fl.ops {
		fl.ops[k] = nil
	}
	*fl.opsBox = fl.ops[:0]
	opsSlicePool.Put(fl.opsBox)
	fl.builder, fl.ops, fl.opsBox = nil, nil, nil
}

// FlushBatches force-flushes every open window (reason "explicit").
// Drain uses it (reason "drain" internally) so parked issuers get
// verdicts instead of waiting out window timers.
func (i *Instance) FlushBatches() int { return i.flushAll(batch.ReasonExplicit) }

func (i *Instance) flushAll(reason batch.Reason) int {
	if i.batchPol == nil {
		return 0
	}
	i.coalMu.Lock()
	cos := make([]*coalescer, 0, len(i.coals))
	for _, co := range i.coals {
		cos = append(cos, co)
	}
	i.coalMu.Unlock()
	flushed := 0
	for _, co := range cos {
		co.mu.Lock()
		if co.builder == nil || co.builder.Count() == 0 {
			co.mu.Unlock()
			continue
		}
		fl := co.takeLocked(reason)
		co.mu.Unlock()
		i.sendBatch(fl, 0)
		flushed++
	}
	return flushed
}

// BatchStats is a snapshot of the instance's coalescer accounting.
type BatchStats struct {
	// Flushes counts vectored forwards sent; Ops the members they
	// carried; Bytes their encoded payload.
	Flushes uint64
	Ops     uint64
	Bytes   uint64
	// Retries counts batch-level re-sends.
	Retries uint64
	// CoalesceRatio is mean ops per flush (1.0 = no coalescing).
	CoalesceRatio float64
	// LastOccupancy and OccupancyHWM describe window fill at flush.
	LastOccupancy uint64
	OccupancyHWM  uint64
	// FlushReasons maps reason label → flush count.
	FlushReasons map[string]uint64
}

// BatchStats reports the coalescer counters (zero value when batching
// is disabled).
func (i *Instance) BatchStats() BatchStats {
	s := BatchStats{
		Flushes:       i.batchStats.Flushes(),
		Ops:           i.batchStats.Ops(),
		Bytes:         i.batchStats.Bytes(),
		Retries:       i.batchStats.Retries(),
		CoalesceRatio: i.batchStats.CoalesceRatio(),
		LastOccupancy: i.batchStats.LastOccupancy(),
		OccupancyHWM:  i.batchStats.OccupancyHWM(),
		FlushReasons:  make(map[string]uint64, 6),
	}
	for _, r := range batch.Reasons() {
		if n := i.batchStats.ByReason(r); n > 0 {
			s.FlushReasons[r.String()] = n
		}
	}
	return s
}
