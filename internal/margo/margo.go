// Package margo reimplements Margo, the Mochi layer that fuses the
// Mercury RPC library with the Argobots tasking runtime and presents
// blocking RPC calls to microservices. As in the paper (§IV-A), Margo is
// where SYMBIOSYS lives: it is the gateway between services and the
// communication library, so it hosts the callpath profiling, distributed
// tracing, and PVAR sampling at the instrumentation points t1…t14 of the
// Mochi RPC execution model (Figure 2).
//
// An Instance is one virtual process: a fabric endpoint, a Mercury
// class, an Argobots runtime with a main execution stream (running the
// progress ULT and, on clients, the application ULTs), an optional
// dedicated progress stream, and on servers a handler pool with a
// configurable number of execution streams (the "Threads (ESs)" column
// of the paper's Table IV).
package margo

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/batch"
	"symbiosys/internal/core"
	"symbiosys/internal/mercury"
	"symbiosys/internal/mercury/pvar"
	"symbiosys/internal/na"
)

// Margo's own PVARs, exported alongside the Mercury library variables
// so the same session plumbing reaches them (see ownPVars).
const (
	PVarNumRPCRetries          = "num_rpc_retries"
	PVarNumRPCTimeouts         = "num_rpc_timeouts"
	PVarNumRPCRetriesExhausted = "num_rpc_retries_exhausted"
	PVarNumRequestsShed        = "num_requests_shed"
	PVarNumRequestsExpired     = "num_requests_expired"
	PVarNumBreakerTrips        = "num_breaker_trips"
	// Progress-engine transitions (spin-then-park adaptive loop).
	PVarNumProgressSpinPolls = "num_progress_spin_polls"
	PVarNumProgressParks     = "num_progress_parks"
	// Batch coalescer.
	PVarNumBatchesFlushed = "num_batches_flushed"
	PVarNumBatchedOps     = "num_batched_ops"
	PVarNumBatchRetries   = "num_batch_retries"
	PVarBatchOccupancy    = "batch_window_occupancy"
)

// ownPVar is one row of the table of margo's own performance variables.
type ownPVar struct {
	name, desc string
	class      pvar.Class
	read       func() uint64
	// sampled: margo holds a session handle for it, so a telemetry
	// scrape carries it to /metrics. dumped: profile dumps carry its
	// total beside the callpath stats.
	sampled, dumped bool
}

// ownPVars is that table: registration with the Mercury registry, the
// session's handle list and the profile-dump snapshot are all read off
// it. The readers load the instance's atomics directly, so a dump taken
// after Shutdown finalized the session still sees the final values.
func (i *Instance) ownPVars() []ownPVar {
	return []ownPVar{
		{PVarNumRPCRetries, "forward attempts re-issued by the margo retry policy",
			pvar.ClassCounter, i.retriesTotal.Load, true, true},
		{PVarNumRPCTimeouts, "forward attempts canceled by their per-try deadline",
			pvar.ClassCounter, i.timeoutsTotal.Load, true, true},
		{PVarNumRPCRetriesExhausted, "forwards abandoned after exhausting attempts, deadline, or retry budget",
			pvar.ClassCounter, i.exhaustedTotal.Load, true, true},
		{PVarNumRequestsShed, "incoming requests shed by admission control (watermarks or draining)",
			pvar.ClassCounter, i.shedTotal.Load, true, true},
		{PVarNumRequestsExpired, "incoming requests rejected because their propagated deadline passed",
			pvar.ClassCounter, i.expiredTotal.Load, true, true},
		{PVarNumBreakerTrips, "circuit breaker closed-to-open transitions on the client side",
			pvar.ClassCounter, i.breakerTripsTotal.Load, true, true},
		{PVarNumProgressSpinPolls, "empty non-blocking polls the adaptive progress loop spun through",
			pvar.ClassCounter, i.progressSpinsTotal.Load, true, false},
		{PVarNumProgressParks, "blocking completion-queue waits the progress loop parked in",
			pvar.ClassCounter, i.progressParksTotal.Load, true, false},
		{PVarNumBatchesFlushed, "coalescer windows flushed as vectored forwards",
			pvar.ClassCounter, i.batchStats.Flushes, false, true},
		{PVarNumBatchedOps, "forwards that traveled inside vectored frames",
			pvar.ClassCounter, i.batchStats.Ops, false, true},
		{PVarNumBatchRetries, "batch-level retry attempts of vectored forwards",
			pvar.ClassCounter, i.batchStats.Retries, false, true},
		{PVarBatchOccupancy, "member count of the most recently flushed batch window",
			pvar.ClassLevel, i.batchStats.LastOccupancy, false, false},
	}
}

// Mode selects client or server behaviour for an instance.
type Mode int

// Instance modes.
const (
	// ModeClient runs application ULTs and the progress ULT.
	ModeClient Mode = iota
	// ModeServer additionally spawns handler ULTs for incoming RPCs.
	ModeServer
)

// Options configures an Instance.
type Options struct {
	Mode   Mode
	Node   string // virtual node name (colocated endpoints share it)
	Name   string // process name within the node
	Fabric *na.Fabric

	// Mercury holds the RPC-library tuning (OFI_max_events).
	Mercury mercury.Config

	// HandlerStreams is the number of execution streams draining the
	// handler pool on servers — Table IV's "Threads (ESs)". Default 4.
	HandlerStreams int

	// DedicatedProgressES gives the progress ULT its own execution
	// stream instead of sharing the main one — Table IV's "Client
	// Progress Thread?" remediation (paper §V-C4). Default false.
	DedicatedProgressES bool

	// Stage is the SYMBIOSYS measurement stage. Default StageFull.
	Stage core.Stage

	// TraceSinks are streaming consumers attached to the measurement
	// pipeline at startup; each observes every trace event the instance
	// emits (e.g. a core.JSONLTraceSink for on-line export).
	TraceSinks []core.TraceSink

	// Retry, when non-nil, applies client-side resilience to every
	// forward, single or coalesced: failed sends are re-issued under the
	// policy's backoff, and per-try timeouts are retried for RPCs opted
	// in via MarkIdempotent. Nil (the default) keeps the historical
	// single-attempt semantics.
	Retry *RetryPolicy

	// Overload, when non-nil, enables server-side admission control:
	// requests arriving while the handler pool is past the policy's
	// watermarks (or while the instance drains) are shed at dispatch
	// with mercury.ErrOverloaded instead of queueing unboundedly. Nil
	// (the default) admits unconditionally.
	Overload *OverloadPolicy

	// Batch, when non-nil, enables the client-side coalescer:
	// ForwardMany calls sharing a (target, RPC) pair merge into
	// vectored forwards under the policy's window. Nil (the default)
	// makes those calls degrade to plain Forwards.
	Batch *batch.Policy
}

func (o *Options) fillDefaults() {
	if o.HandlerStreams <= 0 {
		o.HandlerStreams = 4
	}
}

// The progress engine's tuning (see progressLoop).
const (
	// progressTimeout bounds how long an idle progress pass blocks
	// waiting for network events — the ceiling of the idle backoff.
	progressTimeout = 500 * time.Microsecond
	// progressSpin is how many consecutive empty poll-and-yield passes
	// the loop spins through before it starts parking in blocking waits.
	// Spinning keeps completion latency at poll granularity while traffic
	// flows; the budget bounds the CPU an idle instance burns.
	progressSpin = 256
	// triggerBatch bounds callbacks executed per progress pass.
	triggerBatch = 256
)

// Instance is one Margo-managed virtual process.
type Instance struct {
	opts Options
	hg   *mercury.Class
	ep   *na.Endpoint
	rt   *abt.Runtime

	mainPool     *abt.Pool
	progressPool *abt.Pool // == mainPool unless DedicatedProgressES
	handlerPool  *abt.Pool // servers only; == mainPool on clients

	prof *core.Profiler
	sys  *core.SysSampler

	// Margo's PVAR session into Mercury (paper Figure 3), opened at
	// initialization with handles pre-allocated for every variable it
	// fuses into profiles and traces.
	session     *pvar.Session
	pvars       []ownPVar
	pvarMu      sync.Mutex // RegisterServicePVar mutates pvarGlobals while a scrape reads it
	pvarGlobals map[string]*pvar.Handle
	// The handles every trace event's PVAR sample reads, resolved once:
	// in tracedGlobals and tracedBound order.
	traceGlobals [len(tracedGlobals)]*pvar.Handle
	traceBound   [len(tracedBound)]*pvar.Handle

	progressULT *abt.ULT
	stopping    atomic.Bool

	// Progress-engine state: lifetime spin-poll and park counters
	// (exported as PVARs and telemetry rows).
	progressSpinsTotal atomic.Uint64
	progressParksTotal atomic.Uint64

	rpcsInFlight atomic.Int64
	// idleCh, when non-nil, is closed by the forward that drives
	// rpcsInFlight to zero; WaitIdle parks on it instead of polling.
	idleMu sync.Mutex
	idleCh chan struct{}

	// Client-side resilience state (Options.Retry) and its lifetime
	// counters, also exported as PVARs and telemetry rows.
	retry          *retryState
	idemMu         sync.Mutex
	idem           map[string]bool
	retriesTotal   atomic.Uint64
	timeoutsTotal  atomic.Uint64
	exhaustedTotal atomic.Uint64

	// Server-side overload-control state (Options.Overload): the
	// admission policy, the draining flag Drain raises, the
	// admitted-but-unfinished handler count, and the shed/expired
	// lifetime counters exported as PVARs and telemetry rows.
	overload         *OverloadPolicy
	draining         atomic.Bool
	handlersInFlight atomic.Int64
	shedTotal        atomic.Uint64
	expiredTotal     atomic.Uint64

	// Drain hooks (OnDrain): services park last-chance work here — e.g.
	// handing owned KV shards to peers before the endpoint closes.
	drainMu    sync.Mutex
	drainHooks []func(context.Context) error

	// Client-side circuit breakers (RetryPolicy.Breaker), one per
	// (target, RPC) pair, with their lifetime counters.
	breakerMu             sync.Mutex
	breakers              map[breakerKey]*breaker
	breakerTripsTotal     atomic.Uint64
	breakerFastFailsTotal atomic.Uint64

	// Client-side coalescer state (Options.Batch): one window per
	// (target, RPC) pair plus the shared flush accounting.
	batchPol   *batch.Policy
	coalMu     sync.Mutex
	coals      map[breakerKey]*coalescer
	batchSeq   atomic.Uint64
	batchStats batch.Stats
}

// New creates and starts an instance: endpoint, Mercury class, Argobots
// topology, PVAR session, and the progress ULT.
func New(opts Options) (*Instance, error) {
	opts.fillDefaults()
	if opts.Fabric == nil {
		return nil, fmt.Errorf("margo: Options.Fabric is required")
	}
	ep, err := opts.Fabric.NewEndpoint(opts.Node, opts.Name)
	if err != nil {
		return nil, err
	}
	inst := &Instance{
		opts: opts,
		ep:   ep,
		hg:   mercury.NewClass(ep, opts.Mercury),
		rt:   abt.NewRuntime(),
		sys:  core.NewSysSampler(0),
	}
	inst.prof = core.NewProfiler(ep.Addr(), opts.Stage)
	for _, s := range opts.TraceSinks {
		inst.prof.AddTraceSink(s)
	}

	inst.mainPool = inst.rt.AddPool("main")
	inst.rt.AddXStreams("main-es", 1, inst.mainPool)

	inst.progressPool = inst.mainPool
	if opts.DedicatedProgressES {
		inst.progressPool = inst.rt.AddPool("progress")
		inst.rt.AddXStreams("progress-es", 1, inst.progressPool)
	}

	inst.handlerPool = inst.mainPool
	if opts.Mode == ModeServer {
		inst.handlerPool = inst.rt.AddPool("handlers")
		inst.rt.AddXStreams("handler-es", opts.HandlerStreams, inst.handlerPool)
	}

	if opts.Retry != nil {
		inst.retry = newRetryState(*opts.Retry)
	}
	if opts.Overload != nil {
		pol := opts.Overload.withDefaults()
		inst.overload = &pol
	}
	if opts.Batch != nil {
		pol := opts.Batch.WithDefaults()
		inst.batchPol = &pol
	}
	inst.pvars = inst.ownPVars()
	for _, v := range inst.pvars {
		inst.hg.PVars().RegisterGlobal(v.name, v.desc, v.class, v.read)
	}
	inst.initPVarSession()
	inst.prof.SetPVarSnapshot(func() map[string]uint64 {
		snap := make(map[string]uint64, len(inst.pvars))
		for _, v := range inst.pvars {
			if v.dumped {
				snap[v.name] = v.read()
			}
		}
		return snap
	})
	inst.progressULT = inst.progressPool.Create("margo-progress", inst.progressLoop)
	return inst, nil
}

// Addr returns the instance's fabric address.
func (i *Instance) Addr() string { return i.ep.Addr() }

// Mode reports whether the instance was initialized as a server or a
// client (servers can register handlers and receive pushes).
func (i *Instance) Mode() Mode { return i.opts.Mode }

// Profiler returns the instance's SYMBIOSYS measurement state.
func (i *Instance) Profiler() *core.Profiler { return i.prof }

// Mercury returns the underlying RPC library instance.
func (i *Instance) Mercury() *mercury.Class { return i.hg }

// MainPool returns the pool running application/progress ULTs.
func (i *Instance) MainPool() *abt.Pool { return i.mainPool }

// HandlerPool returns the pool running RPC handler ULTs.
func (i *Instance) HandlerPool() *abt.Pool { return i.handlerPool }

// SetStage switches the measurement stage at runtime.
func (i *Instance) SetStage(s core.Stage) { i.prof.SetStage(s) }

// progressLoop is the Mercury progress ULT (paper §V-C4): it reads up to
// OFI_max_events completion events per pass, fires completion callbacks,
// and yields so colocated ULTs can run.
//
// The engine is adaptive, spin-then-park: while events flow (or other
// ULTs wait for this stream) every pass is a non-blocking poll plus a
// yield, which keeps completion latency at poll granularity instead of
// timer granularity. Only after progressSpin consecutive empty passes
// does the loop start blocking inside the na completion-queue wait, with
// the timeout backing off exponentially to progressTimeout so an idle
// instance releases the CPU. Any delivered event or runnable neighbor
// snaps it back to spinning. The spin/park transitions are exported as
// PVARs (num_progress_spin_polls, num_progress_parks).
func (i *Instance) progressLoop(self *abt.ULT) {
	spin := 0
	backoff := progressTimeout
	for !i.stopping.Load() {
		shared := i.progressPool.Runnable() > 0
		timeout := time.Duration(0)
		if !shared && spin >= progressSpin {
			// Idle past the spin budget: park in the completion-queue
			// wait, doubling toward the progressTimeout ceiling.
			backoff *= 2
			if backoff > progressTimeout {
				backoff = progressTimeout
			}
			timeout = backoff
			i.progressParksTotal.Add(1)
		}
		moved := i.hg.Progress(timeout)
		moved += i.hg.Trigger(triggerBatch)
		if moved > 0 || shared {
			spin = 0
			backoff = progressTimeout / 16
		} else if spin < progressSpin {
			spin++
			i.progressSpinsTotal.Add(1)
		}
		self.Yield()
	}
}

// Run starts an application ULT on the main pool (client workloads).
func (i *Instance) Run(name string, fn func(self *abt.ULT)) *abt.ULT {
	return i.mainPool.Create(name, fn)
}

// WaitIdle blocks until no RPCs are in flight or the timeout expires,
// reporting whether the instance went idle. The wait parks on the
// in-flight-count event the completing forward signals — no polling, no
// latency jitter from sleep quantization.
func (i *Instance) WaitIdle(timeout time.Duration) bool {
	if i.rpcsInFlight.Load() == 0 {
		return true
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		i.idleMu.Lock()
		if i.idleCh == nil {
			i.idleCh = make(chan struct{})
		}
		ch := i.idleCh
		i.idleMu.Unlock()
		// Recheck after registering: the closing decrement either sees
		// the channel (and closes it) or happened before this load.
		if i.rpcsInFlight.Load() == 0 {
			return true
		}
		select {
		case <-ch:
			if i.rpcsInFlight.Load() == 0 {
				return true
			}
		case <-deadline.C:
			return i.rpcsInFlight.Load() == 0
		}
	}
}

// rpcDone releases n in-flight slots and, on the transition to zero,
// wakes WaitIdle parkers.
func (i *Instance) rpcDone(n int) {
	if i.rpcsInFlight.Add(int64(-n)) != 0 {
		return
	}
	i.idleMu.Lock()
	if i.idleCh != nil {
		close(i.idleCh)
		i.idleCh = nil
	}
	i.idleMu.Unlock()
}

// Shutdown stops the progress loop, flushes any
// attached trace sinks, and tears down the runtime. It returns the
// first sink flush error, so exporters learn about lost events.
func (i *Instance) Shutdown() error {
	if !i.stopping.CompareAndSwap(false, true) {
		return nil
	}
	i.progressULT.Join(nil)
	err := i.prof.FlushSinks()
	if i.session != nil {
		i.session.Finalize()
	}
	i.ep.Close()
	i.rt.Shutdown()
	return err
}

// The PVARs a trace event's PVarSample carries: library-global ones,
// and ones bound to the event's Mercury handle.
var (
	tracedGlobals = [...]string{
		mercury.PVarNumOFIEventsRead,
		mercury.PVarCompletionQueueSize,
		mercury.PVarNumPostedHandles,
		mercury.PVarNumRPCsInvoked,
		mercury.PVarBulkBytesTransferred,
	}
	tracedBound = [...]string{
		mercury.PVarInputSerTime,
		mercury.PVarInputDeserTime,
		mercury.PVarOutputSerTime,
		mercury.PVarInternalRDMATime,
		mercury.PVarOriginCBTime,
	}
	// fabricGlobals are scraped, not traced: the fabric's delivery
	// lateness toward the instance.
	fabricGlobals = [...]string{
		mercury.PVarNumDeliveries,
		mercury.PVarDeliveryLatenessNanos,
		mercury.PVarNumDeliveriesLate10us,
		mercury.PVarNumDeliveriesLate50us,
	}
)

// initPVarSession opens Margo's sampling session with Mercury and
// allocates handles for every PVAR it fuses into measurements, mirroring
// the initialization handshake of the paper's Figure 3. The traced ones
// are kept in fields, so that sampling one costs no lookup; every global
// one is also in pvarGlobals, by name, for the telemetry scrape.
func (i *Instance) initPVarSession() {
	i.session = i.hg.PVars().InitSession()
	i.pvarGlobals = make(map[string]*pvar.Handle)
	alloc := func(name string) *pvar.Handle {
		h, err := i.session.AllocHandleByName(name)
		if err != nil {
			panic(fmt.Sprintf("margo: alloc pvar %s: %v", name, err))
		}
		return h
	}
	for k, name := range tracedGlobals {
		i.traceGlobals[k] = alloc(name)
		i.pvarGlobals[name] = i.traceGlobals[k]
	}
	for _, v := range i.pvars {
		if v.sampled {
			i.pvarGlobals[v.name] = alloc(v.name)
		}
	}
	for _, name := range fabricGlobals {
		i.pvarGlobals[name] = alloc(name)
	}
	for k, name := range tracedBound {
		i.traceBound[k] = alloc(name)
	}
}

// RegisterServicePVar exposes a service-level variable through the same
// PVAR plumbing as the library counters: it enters the Mercury
// registry, gets a session handle, and is fused into telemetry samples
// — so a service counter reaches /metrics as symbiosys_pvar_<name>
// with no exporter-side wiring. Callable at any point after New; read
// must be safe for concurrent use (an atomic load).
func (i *Instance) RegisterServicePVar(name, desc string, class pvar.Class, read func() uint64) error {
	i.hg.PVars().RegisterGlobal(name, desc, class, read)
	h, err := i.session.AllocHandleByName(name)
	if err != nil {
		return fmt.Errorf("margo: alloc service pvar %s: %w", name, err)
	}
	i.pvarMu.Lock()
	i.pvarGlobals[name] = h
	i.pvarMu.Unlock()
	return nil
}

// globalPVarHandle fetches a global PVAR handle under the lock that
// RegisterServicePVar mutates the map under.
func (i *Instance) globalPVarHandle(name string) *pvar.Handle {
	i.pvarMu.Lock()
	defer i.pvarMu.Unlock()
	return i.pvarGlobals[name]
}

// readPVar samples one PVAR through h, off obj when it is handle-bound,
// returning 0 on error.
func (i *Instance) readPVar(h *pvar.Handle, obj any) uint64 {
	v, err := i.session.Read(h, obj)
	if err != nil {
		return 0
	}
	return v
}

// samplePVars fills s, the PVAR annotation of a trace event, and
// returns it — or returns nil, s untouched, when stage does not sample
// PVARs. The handle-bound timers are read off mh when it is non-nil.
// The caller owns s, typically on its stack: the Profiler copies what
// it records.
func (i *Instance) samplePVars(stage core.Stage, s *core.PVarSample, mh *mercury.Handle) *core.PVarSample {
	if !stage.SamplesPVars() {
		return nil
	}
	g := &i.traceGlobals
	*s = core.PVarSample{
		OFIEventsRead:    i.readPVar(g[0], nil),
		CompletionQueue:  i.readPVar(g[1], nil),
		PostedHandles:    i.readPVar(g[2], nil),
		RPCsInvokedTotal: i.readPVar(g[3], nil),
		BulkBytesMoved:   i.readPVar(g[4], nil),
		NetworkPending:   uint64(i.hg.NetworkPending()),
	}
	if mh != nil {
		b := &i.traceBound
		s.InputSerNanos = i.readPVar(b[0], mh)
		s.InputDeserNanos = i.readPVar(b[1], mh)
		s.OutputSerNanos = i.readPVar(b[2], mh)
		s.RDMANanos = i.readPVar(b[3], mh)
		s.OriginCBNanos = i.readPVar(b[4], mh)
	}
	return s
}

// stamp builds the fields every trace event this instance emits has in
// common, whichever of t1, t5, t8 or t14 it marks; the caller adds what
// its kind of event carries on top (duration, failure, queue wait, batch
// identity). pool is the one whose saturation matters at that point.
func (i *Instance) stamp(kind core.EventKind, at time.Time, reqID, order uint64, peer, rpcName string, bc core.Breadcrumb, pool *abt.Pool) core.Event {
	return core.Event{
		RequestID:  reqID,
		Order:      order,
		Kind:       kind,
		Timestamp:  i.prof.StampNanos(at),
		Entity:     i.Addr(),
		Peer:       peer,
		RPCName:    rpcName,
		Breadcrumb: uint64(bc),
		Sys:        i.sysSample(pool),
	}
}

// sysSample annotates a trace event with pool and runtime statistics.
// pool is the pool whose saturation matters at the sampling point (the
// handler pool on targets, the main pool on origins).
func (i *Instance) sysSample(pool *abt.Pool) core.SysSample {
	s := i.sys.Sample()
	s.PoolRunnable = pool.Runnable()
	s.PoolBlocked = pool.Blocked()
	return s
}
