// Package na is a network abstraction layer modeled on the OpenFabrics
// Interfaces (OFI/libfabric) as used by Mercury. It provides addressable
// endpoints on a simulated fabric with a configurable latency/bandwidth
// cost model, two-sided messaging (expected and unexpected), one-sided
// RDMA get/put against registered memory, and per-endpoint completion
// queues drained in bounded batches.
//
// The fabric is in-process: "nodes" and "processes" are virtual, and the
// cost model charges lower latency between endpoints on the same node.
// This substitutes for the Cray Aries network of the paper's testbed; the
// phenomenon the paper studies at this layer — completion events backing
// up in the OFI queue when the progress loop is starved or its read batch
// (OFI_max_events) is too small — depends only on the bounded-batch
// draining discipline, which is preserved exactly.
package na

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Errors returned by fabric operations.
var (
	ErrUnreachable = errors.New("na: endpoint unreachable")
	ErrClosed      = errors.New("na: endpoint closed")
	ErrBadMemory   = errors.New("na: invalid memory handle")
	ErrBounds      = errors.New("na: RDMA access out of bounds")
)

// Config is the fabric cost model.
type Config struct {
	// LatencyLocal is the one-way latency between endpoints on the same
	// node; LatencyRemote between endpoints on different nodes.
	LatencyLocal  time.Duration
	LatencyRemote time.Duration
	// Bandwidth is the payload streaming rate in bytes per second used
	// for both messages and RDMA. Zero means infinite.
	Bandwidth float64
	// CQDepth bounds each endpoint's completion queue. Zero means a
	// generous default. Overflow events are counted, not dropped
	// silently.
	CQDepth int
}

// DefaultConfig is a fabric resembling a modern HPC interconnect scaled
// for simulation: ~1.5us local, ~8us remote latency, 10 GB/s.
func DefaultConfig() Config {
	return Config{
		LatencyLocal:  1500 * time.Nanosecond,
		LatencyRemote: 8 * time.Microsecond,
		Bandwidth:     10e9,
		CQDepth:       1 << 16,
	}
}

// Fabric connects endpoints. It is safe for concurrent use.
type Fabric struct {
	cfg Config

	mu  sync.Mutex
	eps map[string]*Endpoint

	// faults is the hot-settable fault-injection plan (see fault.go);
	// nil means a healthy fabric with zero per-send overhead beyond the
	// pointer load.
	faults atomic.Pointer[faultState]

	// Fabric-wide injected-fault totals.
	faultDrops    atomic.Uint64
	faultDups     atomic.Uint64
	faultDelays   atomic.Uint64
	faultRefusals atomic.Uint64
}

// NewFabric creates a fabric with the given cost model.
func NewFabric(cfg Config) *Fabric {
	if cfg.CQDepth <= 0 {
		cfg.CQDepth = 1 << 16
	}
	return &Fabric{cfg: cfg, eps: make(map[string]*Endpoint)}
}

// NewEndpoint registers an endpoint for a (virtual) process on a node.
// The returned endpoint's address is "node/name".
func (f *Fabric) NewEndpoint(node, name string) (*Endpoint, error) {
	addr := node + "/" + name
	ep := &Endpoint{
		fabric: f,
		addr:   addr,
		node:   node,
		cq:     newCompletionQueue(f.cfg.CQDepth),
		mem:    make(map[uint64][]byte),
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.eps[addr]; dup {
		return nil, fmt.Errorf("na: duplicate endpoint %q", addr)
	}
	f.eps[addr] = ep
	return ep, nil
}

// lookup resolves an address to a live endpoint.
func (f *Fabric) lookup(addr string) (*Endpoint, error) {
	f.mu.Lock()
	ep := f.eps[addr]
	f.mu.Unlock()
	if ep == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, addr)
	}
	if ep.closed.Load() {
		return nil, fmt.Errorf("%w: %s", ErrClosed, addr)
	}
	return ep, nil
}

// delay computes the modeled transfer time for size bytes between nodes.
func (f *Fabric) delay(srcNode, dstNode string, size int) time.Duration {
	var d time.Duration
	if srcNode == dstNode {
		d = f.cfg.LatencyLocal
	} else {
		d = f.cfg.LatencyRemote
	}
	if f.cfg.Bandwidth > 0 && size > 0 {
		d += time.Duration(float64(size) / f.cfg.Bandwidth * float64(time.Second))
	}
	return d
}

// EventKind identifies a completion-queue event.
type EventKind int8

// Completion event kinds.
const (
	// EvRecv delivers an incoming message (request or response).
	EvRecv EventKind = iota
	// EvSendDone reports that a previously issued Send has completed.
	EvSendDone
	// EvRDMADone reports that a Get or Put initiated locally completed.
	EvRDMADone
	// EvError reports an asynchronous failure of a send or RDMA op.
	EvError
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvRecv:
		return "recv"
	case EvSendDone:
		return "send_done"
	case EvRDMADone:
		return "rdma_done"
	case EvError:
		return "error"
	default:
		return fmt.Sprintf("event(%d)", int8(k))
	}
}

// Message is a two-sided transfer unit.
type Message struct {
	From string
	To   string
	// Tag matches a message to a waiting operation on the receiver;
	// TagUnexpected marks a fresh request.
	Tag  uint64
	Data []byte
}

// TagUnexpected marks messages that start a new exchange (RPC requests).
const TagUnexpected = 0

// Event is a completion-queue entry. It is a plain value all the way
// from the sender's Send to the reader's PollInto buffer: a received
// message rides inline, so delivering one allocates nothing: its Data
// is the very slice the sender passed to Send.
type Event struct {
	Kind EventKind
	// Msg is the received message, for EvRecv.
	Msg Message
	// Ctx echoes the context value passed to Send/Get/Put for
	// EvSendDone, EvRDMADone and EvError.
	Ctx any
	// Err is set for EvError.
	Err error
	// Posted is when the event entered the queue; the residence time
	// until it is read is the t11->t12 gap of the paper.
	Posted time.Time
}

// Endpoint is one addressable fabric attachment.
type Endpoint struct {
	fabric *Fabric
	addr   string
	node   string
	closed atomic.Bool

	cq *completionQueue

	// memMu is held for reading across every RDMA copy and for writing
	// by Register/DeregisterMemory (see DeregisterMemory).
	memMu  sync.RWMutex
	mem    map[uint64][]byte
	nextID atomic.Uint64

	// chainMu guards per-destination delivery chains that preserve
	// point-to-point ordering (as HPC fabrics do): one chain per peer
	// for messages and one for RDMA. Each chain owns a FIFO of pending
	// deliveries and one reusable timer, so a steady-state send or
	// transfer costs no timer, channel, or closure allocations.
	chainMu sync.Mutex
	chains  map[chainKey]*sendChain

	sends atomic.Uint64
	recvs atomic.Uint64

	// late sums how late the fabric delivered what was sent toward this
	// endpoint (see Lateness).
	late struct {
		count, ns, over10us, over50us atomic.Uint64
	}

	// Injected-fault counters, sender side (see fault.go accessors).
	faultDrops    atomic.Uint64
	faultDups     atomic.Uint64
	faultDelays   atomic.Uint64
	faultRefusals atomic.Uint64
}

// Lateness totals how late deliveries toward an endpoint were: for each
// message and RDMA transfer, the time from its modeled arrival to its
// delivery.
type Lateness struct {
	Count    uint64 // deliveries
	SumNanos uint64 // their lateness, summed
	Over10us uint64 // deliveries more than 10 µs late
	Over50us uint64 // and more than 50 µs late
}

// Lateness reports the endpoint's delivery lateness totals.
func (e *Endpoint) Lateness() Lateness {
	return Lateness{e.late.count.Load(), e.late.ns.Load(), e.late.over10us.Load(), e.late.over50us.Load()}
}

// delivered counts one delivery toward e, late by late.
func (e *Endpoint) delivered(late time.Duration) {
	e.late.count.Add(1)
	e.late.ns.Add(uint64(late))
	if late > 10*time.Microsecond {
		e.late.over10us.Add(1)
		if late > 50*time.Microsecond {
			e.late.over50us.Add(1)
		}
	}
}

// Addr returns the endpoint's fabric address ("node/name").
func (e *Endpoint) Addr() string { return e.addr }

// Close makes the endpoint unreachable; in-flight deliveries to it are
// dropped and subsequent sends fail with an EvError completion.
func (e *Endpoint) Close() { e.closed.Store(true) }

// Send transmits data to the destination address. Delivery is
// asynchronous: after the modeled transfer delay the receiver gets an
// EvRecv event and the sender an EvSendDone (or EvError) carrying ctx.
// The data slice is captured; callers must not mutate it afterwards.
func (e *Endpoint) Send(to string, tag uint64, data []byte, ctx any) {
	e.sends.Add(1)
	dst, err := e.fabric.lookup(to)
	if err != nil {
		e.cq.post(Event{Kind: EvError, Ctx: ctx, Err: err})
		return
	}
	fault, refused := e.evalFaults(to, false)
	if refused {
		// Partitioned link: refuse like an unreachable peer, before any
		// chain entry is created.
		e.cq.post(Event{Kind: EvError, Ctx: ctx,
			Err: fmt.Errorf("%w: %s -> %s", ErrPartitioned, e.addr, to)})
		return
	}
	d := e.fabric.delay(e.node, dst.node, len(data)) + fault.delay
	e.chainFor(to, false).add(delivery{
		dst:  dst,
		msg:  Message{From: e.addr, To: to, Tag: tag, Data: data},
		ctx:  ctx,
		due:  time.Now().Add(d),
		drop: fault.drop,
		dup:  fault.dup,
	})
}

// chainKey names one delivery chain: messages and RDMA toward the same
// peer ride separate chains, so a large transfer does not hold back the
// small messages behind it (and vice versa).
type chainKey struct {
	to   string
	rdma bool
}

// chainFor returns the message or RDMA delivery chain toward one
// destination address, creating it on first use.
func (e *Endpoint) chainFor(to string, rdma bool) *sendChain {
	key := chainKey{to: to, rdma: rdma}
	e.chainMu.Lock()
	defer e.chainMu.Unlock()
	if e.chains == nil {
		e.chains = make(map[chainKey]*sendChain)
	}
	sc := e.chains[key]
	if sc == nil {
		sc = &sendChain{src: e}
		sc.pumpFn = sc.pump
		e.chains[key] = sc
	}
	return sc
}

// delivery is one in-flight message or RDMA transfer awaiting its
// modeled transfer delay.
type delivery struct {
	dst *Endpoint
	msg Message // held by value; unused by an RDMA transfer
	ctx any
	due time.Time
	// Message fault outcome.
	drop bool
	dup  bool
	// RDMA transfer: local <-> region memID of dst at off.
	rdma  bool
	memID uint64
	off   int
	local []byte
	put   bool
}

// sendChain serializes deliveries from one endpoint to one destination
// address so point-to-point ordering holds (as HPC fabrics guarantee,
// and as a reliable-connected queue pair completes its RDMA work
// requests): entry i is delivered at max(its modeled arrival time,
// delivery of entry i-1). A single timer is re-armed for the head of
// the FIFO — the per-operation timer+closure this replaces dominated
// the allocation profile of the RPC hot path.
//
// Deliveries still always ride the runtime timer, even for µs-scale
// modeled delays, and the timer wakes late: on hepnos_c7 (2-vCPU host)
// deliveries were 13.5 µs late on average against a 5.36 µs modeled
// delay, with a median of 2–4 µs and a p99 of 64–128 µs. That is no
// uniform inflation of every hop but a long tail from the runtime's
// timer wakes. Each endpoint counts the lateness of what it receives
// (Lateness), which Mercury exports as PVARs.
type sendChain struct {
	src    *Endpoint
	mu     sync.Mutex
	q      []delivery
	qhead  int
	timer  *time.Timer
	armed  bool
	pumpFn func() // == pump; bound once so re-arming never allocates
}

func (sc *sendChain) add(d delivery) {
	sc.mu.Lock()
	sc.q = append(sc.q, d)
	if !sc.armed {
		sc.armed = true
		wait := time.Until(d.due)
		if sc.timer == nil {
			sc.timer = time.AfterFunc(wait, sc.pumpFn)
		} else {
			sc.timer.Reset(wait)
		}
	}
	sc.mu.Unlock()
}

// pump delivers every due entry in FIFO order, then either re-arms the
// timer for the head of the remaining queue or goes idle. Runs in the
// timer goroutine; cq.post never blocks, so holding mu across delivery
// is safe and keeps ordering trivially correct.
func (sc *sendChain) pump() {
	sc.mu.Lock()
	for sc.qhead < len(sc.q) {
		d := &sc.q[sc.qhead]
		wait := time.Until(d.due)
		if wait > 0 {
			sc.timer.Reset(wait)
			sc.mu.Unlock()
			return
		}
		d.dst.delivered(-wait)
		if d.rdma {
			sc.src.completeRDMA(d)
		} else {
			sc.src.deliver(d)
		}
		*d = delivery{}
		sc.qhead++
	}
	sc.q = sc.q[:0]
	sc.qhead = 0
	sc.armed = false
	sc.mu.Unlock()
}

// deliver completes one chained send: receiver EvRecv (unless dropped
// or the destination closed) and sender EvSendDone.
func (e *Endpoint) deliver(d *delivery) {
	if d.dst.closed.Load() {
		e.cq.post(Event{Kind: EvError, Ctx: d.ctx, Err: fmt.Errorf("%w: %s", ErrClosed, d.msg.To)})
		return
	}
	if !d.drop {
		if d.dup {
			// The duplicate is a value copy with frame bytes of its own,
			// made before the original can reach a reader: receivers
			// decode views of Data, so two deliveries never share a buffer.
			dup := d.msg
			dup.Data = append([]byte(nil), d.msg.Data...)
			d.dst.recvs.Add(1)
			d.dst.cq.post(Event{Kind: EvRecv, Msg: dup})
		}
		d.dst.recvs.Add(1)
		d.dst.cq.post(Event{Kind: EvRecv, Msg: d.msg})
	}
	// A dropped message still completes on the sender: the NIC
	// reported the send done; the loss is the receiver's silence.
	e.cq.post(Event{Kind: EvSendDone, Ctx: d.ctx})
}

// MemHandle names a registered memory region for one-sided access.
type MemHandle struct {
	Addr string // owning endpoint address
	ID   uint64
	Len  int
}

// RegisterMemory exposes buf for one-sided RDMA and returns its handle.
func (e *Endpoint) RegisterMemory(buf []byte) MemHandle {
	id := e.nextID.Add(1)
	e.memMu.Lock()
	e.mem[id] = buf
	e.memMu.Unlock()
	return MemHandle{Addr: e.addr, ID: id, Len: len(buf)}
}

// DeregisterMemory revokes a handle returned by RegisterMemory. It is a
// barrier: once it returns no transfer reads or writes the region again
// (one still in flight fails with ErrBadMemory), so the owner may reuse
// the buffer.
func (e *Endpoint) DeregisterMemory(h MemHandle) {
	e.memMu.Lock()
	delete(e.mem, h.ID)
	e.memMu.Unlock()
}

// transfer copies between local and region id at off, holding memMu for
// reading across lookup and copy — what makes DeregisterMemory a barrier.
func (e *Endpoint) transfer(id uint64, off int, local []byte, put bool) error {
	e.memMu.RLock()
	defer e.memMu.RUnlock()
	buf, ok := e.mem[id]
	if !ok {
		return ErrBadMemory
	}
	if off < 0 || off+len(local) > len(buf) {
		return ErrBounds
	}
	if put {
		copy(buf[off:], local)
	} else {
		copy(local, buf[off:])
	}
	return nil
}

// Get reads remote[off:off+len(local)] into local (one-sided; the remote
// CPU is not involved). Completion is posted to the initiator's queue as
// EvRDMADone (or EvError) carrying ctx.
func (e *Endpoint) Get(remote MemHandle, off int, local []byte, ctx any) {
	e.rdma(remote, off, local, ctx, false)
}

// Put writes local into remote[off:off+len(local)] (one-sided).
func (e *Endpoint) Put(remote MemHandle, off int, local []byte, ctx any) {
	e.rdma(remote, off, local, ctx, true)
}

func (e *Endpoint) rdma(remote MemHandle, off int, local []byte, ctx any, put bool) {
	dst, err := e.fabric.lookup(remote.Addr)
	if err != nil {
		e.cq.post(Event{Kind: EvError, Ctx: ctx, Err: err})
		return
	}
	fault, refused := e.evalFaults(remote.Addr, true)
	if refused {
		e.cq.post(Event{Kind: EvError, Ctx: ctx,
			Err: fmt.Errorf("%w: %s -> %s", ErrPartitioned, e.addr, remote.Addr)})
		return
	}
	d := e.fabric.delay(e.node, dst.node, len(local)) + fault.delay
	e.chainFor(remote.Addr, true).add(delivery{
		dst:   dst,
		ctx:   ctx,
		due:   time.Now().Add(d),
		rdma:  true,
		memID: remote.ID,
		off:   off,
		local: local,
		put:   put,
	})
}

// completeRDMA performs one chained transfer against the region as it
// is registered when the modeled delay has elapsed, and posts the
// initiator's completion.
func (e *Endpoint) completeRDMA(d *delivery) {
	if err := d.dst.transfer(d.memID, d.off, d.local, d.put); err != nil {
		e.cq.post(Event{Kind: EvError, Ctx: d.ctx, Err: err})
		return
	}
	e.cq.post(Event{Kind: EvRDMADone, Ctx: d.ctx})
}

// PollInto drains up to max completion events without blocking, in
// arrival order, into the caller's reusable buffer; the returned slice
// aliases buf when it has capacity. This is the bounded read that
// Mercury performs per progress iteration, allocation-free; the batch
// size is the paper's OFI_max_events.
func (e *Endpoint) PollInto(buf []Event, max int) []Event {
	return e.cq.pollInto(buf, max)
}

// Wait blocks until at least one completion event is pending or the
// timeout elapses, reporting whether events are pending.
func (e *Endpoint) Wait(timeout time.Duration) bool {
	return e.cq.wait(timeout)
}

// Pending reports the instantaneous completion-queue length.
func (e *Endpoint) Pending() int { return e.cq.len() }

// CQDepth reports the instantaneous completion-queue length (alias of
// Pending under the name the telemetry plane exports it as).
func (e *Endpoint) CQDepth() int { return e.cq.len() }

// EventsRead reports the cumulative number of completion events drained
// by Poll — the na-layer counter behind the num_ofi_events_read PVAR.
func (e *Endpoint) EventsRead() uint64 { return e.cq.read.Load() }

// EventsPosted reports the cumulative number of completion events
// successfully enqueued (overflowed events are not counted here).
func (e *Endpoint) EventsPosted() uint64 { return e.cq.posted.Load() }

// Overflows reports how many events could not be queued because the
// completion queue was at capacity.
func (e *Endpoint) Overflows() uint64 { return e.cq.overflows.Load() }
