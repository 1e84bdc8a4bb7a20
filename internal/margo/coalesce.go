package margo

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/batch"
	"symbiosys/internal/core"
	"symbiosys/internal/mercury"
)

// This file is the client-side coalescer: same-(target, RPC) forwards
// accumulate in an adaptive batch window and leave as one vectored
// mercury.ForwardBatch; the per-entry reply statuses fan back out to the
// waiting ULTs. The window flushes when it fills (ops or bytes), when its
// adaptive delay elapses, when a member's propagated deadline makes
// waiting dangerous, or when the instance drains. Each member is one
// originOp and each flush attempt gets the verdict of a single forward's
// attempt (forward.go): one breaker consultation and one outcome per
// attempt, whole-window retries of failures the fabric reported before
// delivery and, for an idempotent RPC, of per-try timeouts — a window
// holds one RPC name, so "retry the idempotent members" is a per-window
// decision. Per-entry verdicts from the target (shed, expired, handler
// error) arrive inside a successful exchange and are final.

// batchOp is one coalesced forward waiting for its window to complete:
// one t1–t14 chain per logical op. Ops are pooled; everything here is
// overwritten on acquire.
type batchOp struct {
	originOp
	out   mercury.Procable
	res   *error   // caller's per-op error slot
	group *opGroup // completion group of the issuing call
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
	timerAt int64 // unix nanos the armed timer fires at (0 = unarmed)
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

	op := batchOpPool.Get().(*batchOp)
	// An op that arrives already expired fails here, without occupying a
	// window slot. The deadline does not bound the wait client-side as it
	// does for a single forward: it pulls the window's flush forward.
	if _, err := i.beginOp(&op.originOp, self, stage, co.target, co.rpc, ForwardOpts{}); err != nil {
		batchOpPool.Put(op)
		return err
	}
	op.out, op.res, op.group = out, res, group
	// t1 for this logical op: it enters the coalescer window. The
	// matching EvOriginEnd (stamped with the batch ID at fan-out) closes
	// the chain.
	meta := i.originStart(&op.originOp, stage, co.target, co.rpc, false)

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
		// The op's t1 is stamped, so its span closes as a failed attempt.
		co.mu.Unlock()
		i.originEnd(&op.originOp, stage, co.target, co.rpc, time.Now(), true, nil, 0, 0)
		batchOpPool.Put(op)
		return fmt.Errorf("margo: encode batched input for %s: %w", co.rpc, err)
	}
	co.ops = append(co.ops, op)
	co.win.Add(co.builder.Bytes()-preBytes, op.dlNanos)

	if reason := pol.Due(&co.win); reason != batch.ReasonNone {
		fl := co.takeLocked(reason)
		co.mu.Unlock()
		i.sendBatch(fl)
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

// onTimer flushes the window that is open when it fires, if any. It
// runs on a runtime timer goroutine, outside any ULT.
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
	co.i.sendBatch(fl)
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
	// sentNanos is when the frame first left the process (or was
	// fast-failed by an open breaker): the end of the members'
	// batch-window wait, stamped as WindowNanos on their t14 events.
	sentNanos int64
	// The attempt in flight: its number, the circuit it reports to and
	// the call record whose per-try timer guards it.
	attempt int
	br      *breaker
	call    *originCall
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
	}
	co.builder, co.ops, co.opsBox = nil, nil, nil
	co.timerAt = 0
	if co.timer != nil {
		co.timer.Stop()
	}
	co.i.batchStats.RecordFlush(reason, fl.builder.Count(), fl.builder.Bytes())
	return fl
}

// sendBatch issues the next attempt of a flight. It may be called from
// an application ULT (inline size flush), a timer goroutine (window
// flush or retry backoff) or a drain; none of them block.
func (i *Instance) sendBatch(fl *batchFlight) {
	co := fl.co
	if fl.sentNanos == 0 {
		fl.sentNanos = time.Now().UnixNano()
	}
	fl.br = i.breakerFor(co.target, co.rpc)
	if err := i.admit(fl.br, co.target, co.rpc); err != nil {
		// To a window an open circuit is final: there is no ULT here to
		// park through a cooldown backoff, and the members' issuers are
		// already parked expecting one verdict.
		fl.complete(err, time.Now())
		return
	}
	fl.call = callPool.Get().(*originCall)
	mh, err := i.hg.Create(co.target, co.rpc)
	if err == nil {
		mh.SetData(fl)
		// Armed before the send: the completion may run, and release the
		// record, on another stream before ForwardBatch returns here.
		if d := i.retry.tryTimeout(0); d > 0 {
			fl.call.arm(mh, d)
		}
		if err = mh.ForwardBatch(fl.batchID, fl.builder, batchDone); err == nil {
			return
		}
	}
	fl.attemptDone(mh, err)
}

// batchDone is forwardDone for a window's vectored forward: it runs at
// t14 in the progress ULT's Trigger pass, and the handle carries the
// flight.
func batchDone(h *mercury.Handle, err error) {
	h.Data().(*batchFlight).attemptDone(h, err)
}

// attemptDone takes the verdict on the flight's attempt and acts on it:
// fan the replies out, re-send the window after the policy's backoff, or
// fail every member with the final error. Nothing here blocks, so the
// backoff rides a timer where a single forward's ULT sleeps it. h is nil
// when no handle could be created.
func (fl *batchFlight) attemptDone(h *mercury.Handle, err error) {
	t14 := time.Now()
	i, co := fl.co.i, fl.co
	fl.call.release()
	fl.call = nil
	timedOut := i.attemptDone(fl.br, err)
	if err == nil {
		fl.fanOut(h, t14)
		h.Destroy()
		return
	}
	if h != nil {
		h.Destroy()
	}
	backoff, final := i.retryVerdict(co.target, co.rpc, fl.attempt, err, timedOut)
	if final != nil {
		fl.complete(final, t14)
		return
	}
	fl.attempt++
	i.batchStats.RecordRetry()
	time.AfterFunc(max(backoff, time.Microsecond), func() { i.sendBatch(fl) })
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
	stage := fl.co.i.prof.Stage()
	for _, op := range fl.ops {
		fl.completeOp(op, err, t14, stage)
	}
	fl.release()
}

// completeOp finishes one member: trace end event (carrying the batch
// ID and the op's wait in the window), callpath attribution, the
// caller's error slot, and the group countdown. The op returns to its
// pool.
func (fl *batchFlight) completeOp(op *batchOp, err error, t14 time.Time, stage core.Stage) {
	window := max(fl.sentNanos-op.t1.UnixNano(), 0)
	fl.co.i.originEnd(&op.originOp, stage, fl.co.target, fl.co.rpc, t14, err != nil, nil, fl.batchID, window)
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

// flushAll force-flushes every open window. Drain uses it so parked
// issuers get verdicts instead of waiting out window timers.
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
		i.sendBatch(fl)
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
		FlushReasons:  make(map[string]uint64, 5),
	}
	for _, r := range batch.Reasons() {
		if n := i.batchStats.ByReason(r); n > 0 {
			s.FlushReasons[r.String()] = n
		}
	}
	return s
}
