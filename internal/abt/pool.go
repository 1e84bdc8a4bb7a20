package abt

import (
	"sync"
	"sync/atomic"
	"time"
)

// freeListCap bounds the per-pool free list of recycled detached ULT
// structs (each entry keeps a parked goroutine alive), and the process's
// list of idle ones (idleWorkers). Steady-state RPC service reuses
// these, so handler dispatch allocates no scheduler objects; overflow
// beyond the cap simply lets the goroutine exit.
const freeListCap = 1024

// Pool is a queue of ready ULTs, the analogue of an ABT_pool. ULTs are
// created into a pool and return to it when they yield or are woken from
// a blocking primitive.
//
// Structurally the pool is the shared inject/overflow queue of a
// work-stealing scheduler: attached XStreams drain it in batches into
// their private per-pool rings (see ring.go) and steal from each other's
// rings when both their ring and the inject queue are empty. The pool
// also tracks the parked-stream registry that implements the single-waker
// push policy, and the free list that recycles detached ULT structs.
//
// Pools publish the metrics SYMBIOSYS samples when generating trace
// events: the number of runnable ULTs (inject queue plus all local
// rings), the number of ULTs created from the pool that are blocked on a
// primitive, and lifetime creation/execution counters. All of them are
// lock-free mirrors — admission control and telemetry never contend with
// scheduling.
type Pool struct {
	name string

	mu sync.Mutex
	// q[qhead:] is the inject queue. Consumption advances qhead instead
	// of copying; the backing array is reset when the queue empties, so
	// dequeue is amortized O(1).
	q     []*ULT
	qhead int
	// attached lists the streams draining this pool — the steal victims.
	// It is copy-on-write: readers may hold a snapshot without the lock.
	attached []*XStream
	// idlers is a LIFO of streams parked waiting for this pool. Entries
	// are hints: a waker pops until it wins a stream's park-state CAS.
	idlers []*XStream

	freeMu sync.Mutex
	free   []*ULT
	closed bool

	// injected mirrors the inject-queue length (cheap "should I refill"
	// check for streams); runnable mirrors inject + every local ring.
	injected atomic.Int64
	runnable atomic.Int64

	blocked  atomic.Int64
	created  atomic.Uint64
	executed atomic.Uint64
	sizeHWM  atomic.Int64
}

// NewPool returns an empty pool with the given debug name.
func NewPool(name string) *Pool {
	return &Pool{name: name}
}

// Name returns the pool's debug name.
func (p *Pool) Name() string { return p.name }

// Create spawns a new ULT running fn into the pool and returns its
// handle. The ULT begins executing when an attached XStream dequeues it.
func (p *Pool) Create(name string, fn Func) *ULT {
	u := newULT(name, fn, p, false)
	p.created.Add(1)
	p.push(u)
	return u
}

// CreateDetached spawns a fire-and-forget ULT, recycling a pooled struct
// (and its goroutine) when one is free. No handle is returned: detached
// ULTs cannot be joined, and their identity is reused after termination.
// This is the RPC-handler spawn path — steady state allocates nothing.
func (p *Pool) CreateDetached(name string, fn Func) {
	p.CreateDetachedWith(name, fn, nil)
}

// CreateDetachedWith is CreateDetached with the ULT's data slot preset
// to data: a spawner that passes a package-level fn and a pointer to its
// per-request record needs no closure per spawn.
func (p *Pool) CreateDetachedWith(name string, fn Func, data any) {
	u := p.takeFree()
	if u == nil {
		u = newULT(name, fn, p, true)
	} else {
		u.id = nextULTID()
		u.name = name
		u.fn = fn
		u.spawned = time.Now()
		u.firstRun = time.Time{}
	}
	u.data = data
	p.created.Add(1)
	p.push(u)
}

// push enqueues a ready ULT on the inject queue and wakes one parked
// stream (single-waker policy: the woken stream wakes the next one if it
// finds more work, so a burst fans out without a thundering herd).
func (p *Pool) push(u *ULT) {
	u.state.Store(int32(StateReady))
	p.addRunnable(1)
	p.enqueue(u)
	p.wakeOne()
}

// enqueue appends to the inject queue without touching the runnable
// mirror — the entry point for ring flushes, whose ULTs are already
// counted.
func (p *Pool) enqueue(u *ULT) {
	p.mu.Lock()
	p.q = append(p.q, u)
	p.injected.Add(1)
	p.mu.Unlock()
}

// grab moves up to len(dst) ULTs from the inject queue into dst,
// returning how many. Runnable accounting is untouched: the caller is
// transferring them into its local ring, where they stay ready.
func (p *Pool) grab(dst []*ULT) int {
	p.mu.Lock()
	n := len(p.q) - p.qhead
	if n == 0 {
		p.mu.Unlock()
		return 0
	}
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		dst[i] = p.q[p.qhead]
		p.q[p.qhead] = nil
		p.qhead++
	}
	if p.qhead == len(p.q) {
		p.q = p.q[:0]
		p.qhead = 0
	}
	p.injected.Add(int64(-n))
	p.mu.Unlock()
	return n
}

// addRunnable maintains the lock-free depth mirror and its high
// watermark.
func (p *Pool) addRunnable(d int64) {
	n := p.runnable.Add(d)
	if d > 0 {
		for {
			cur := p.sizeHWM.Load()
			if n <= cur || p.sizeHWM.CompareAndSwap(cur, n) {
				return
			}
		}
	}
}

// wakeOne wakes at most one parked stream. Idler entries are hints;
// popping continues until a CAS transitions a stream parked→awake (the
// CAS is what guarantees one token per park) or the list empties.
func (p *Pool) wakeOne() {
	for {
		p.mu.Lock()
		n := len(p.idlers)
		if n == 0 {
			p.mu.Unlock()
			return
		}
		x := p.idlers[n-1]
		p.idlers[n-1] = nil
		p.idlers = p.idlers[:n-1]
		if i := x.poolIndex(p); i >= 0 {
			x.idlerReg[i] = false // guarded by p.mu, like the set
		}
		p.mu.Unlock()
		if x.parkState.CompareAndSwap(xsParked, xsAwake) {
			x.wakes.Add(1)
			x.parkSem.set()
			return
		}
	}
}

// addIdler registers a stream about to park. The caller must already
// have stored xsParked so a concurrent waker's CAS cannot miss it. The
// per-(stream, pool) flag — only ever touched under this pool's mutex —
// dedupes registration: a stream woken through one pool keeps its live
// entry in the others instead of accreting duplicates park after park.
func (p *Pool) addIdler(x *XStream, slot int) {
	p.mu.Lock()
	if !x.idlerReg[slot] {
		x.idlerReg[slot] = true
		p.idlers = append(p.idlers, x)
	}
	p.mu.Unlock()
}

// attach registers a stream as a drainer (and steal victim) of the pool.
func (p *Pool) attach(x *XStream) {
	p.mu.Lock()
	next := make([]*XStream, len(p.attached)+1)
	copy(next, p.attached)
	next[len(next)-1] = x
	p.attached = next
	p.mu.Unlock()
}

// detach removes a stopped stream from the steal-victim set. This is the
// counterpart subscribe never had: before it, elastic resize grew the
// wake list without bound and every push paid for dead streams.
func (p *Pool) detach(x *XStream) {
	p.mu.Lock()
	next := make([]*XStream, 0, len(p.attached))
	for _, v := range p.attached {
		if v != x {
			next = append(next, v)
		}
	}
	p.attached = next
	p.mu.Unlock()
}

// victims returns the current steal-victim snapshot without holding the
// lock during the steal scan (the slice is copy-on-write).
func (p *Pool) victims() []*XStream {
	p.mu.Lock()
	v := p.attached
	p.mu.Unlock()
	return v
}

// takeFree pops a recycled detached ULT, from the pool's free list or
// else from the process's idle workers, or returns nil.
func (p *Pool) takeFree() *ULT {
	p.freeMu.Lock()
	n := len(p.free)
	if n == 0 {
		p.freeMu.Unlock()
		return idleWorkers.adopt(p)
	}
	u := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	p.freeMu.Unlock()
	return u
}

// idleWorkers holds the parked workers of detached ULTs whose runtime
// shut down, for the pools of later runtimes to take up. A process that
// stands runtimes up and down (a test suite, one deployment per
// benchmark rep) then spawns its handler workers once, instead of once
// per runtime to whatever depth each one's load happens to reach. It
// holds at most freeListCap workers; an idle one belongs to no pool.
var idleWorkers workerList

type workerList struct {
	mu sync.Mutex
	us []*ULT
}

// adopt hands the newest idle worker to p, or returns nil.
func (l *workerList) adopt(p *Pool) *ULT {
	l.mu.Lock()
	n := len(l.us)
	if n == 0 {
		l.mu.Unlock()
		return nil
	}
	u := l.us[n-1]
	l.us[n-1] = nil
	l.us = l.us[:n-1]
	l.mu.Unlock()
	u.pool = p
	return u
}

// keep parks as many of us as there is room for and returns the rest.
// Each one's last disposition has been consumed: its pool's streams
// have stopped.
func (l *workerList) keep(us []*ULT) []*ULT {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := min(len(us), freeListCap-len(l.us))
	for _, u := range us[:n] {
		u.pool = nil // an idle worker keeps no runtime alive
	}
	l.us = append(l.us, us[:n]...)
	return us[n:]
}

// recycle returns a terminated detached ULT to the free list, or lets
// its goroutine die when the list is full or the pool shut down. The
// caller has already cleared fn.
func (p *Pool) recycle(u *ULT) {
	p.freeMu.Lock()
	if p.closed || len(p.free) >= freeListCap {
		p.freeMu.Unlock()
		u.runGate.set() // worker sees fn == nil and exits
		return
	}
	p.free = append(p.free, u)
	p.freeMu.Unlock()
}

// drainFree hands the pooled workers to the process's idle list and
// releases those it has no room for (Runtime.Shutdown, once the
// runtime's streams have stopped).
func (p *Pool) drainFree() {
	p.freeMu.Lock()
	p.closed = true
	free := p.free
	p.free = nil
	p.freeMu.Unlock()
	for _, u := range idleWorkers.keep(free) {
		u.runGate.set() // worker sees fn == nil and exits
	}
}

// Len reports the number of runnable ULTs currently queued (inject queue
// plus local rings), from the lock-free mirror.
func (p *Pool) Len() int { return int(p.runnable.Load()) }

// Runnable reports the runnable depth from a lock-free mirror. Admission
// control reads this on every incoming request, so it must not contend
// with the scheduler's push/pop path.
func (p *Pool) Runnable() int64 { return p.runnable.Load() }

// Blocked reports the number of ULTs created from this pool that are
// currently parked on a blocking primitive. This is the counter sampled
// for the paper's Figure 10 serialization study.
func (p *Pool) Blocked() int64 { return p.blocked.Load() }

// Created reports the lifetime number of ULTs created into the pool.
func (p *Pool) Created() uint64 { return p.created.Load() }

// Executed reports the lifetime number of ULTs that ran to completion.
func (p *Pool) Executed() uint64 { return p.executed.Load() }

// SizeHighWatermark reports the largest runnable depth observed.
func (p *Pool) SizeHighWatermark() int64 { return p.sizeHWM.Load() }

// Stats is a point-in-time snapshot of pool metrics.
type Stats struct {
	Runnable int
	Blocked  int64
	Created  uint64
	Executed uint64
	SizeHWM  int64
}

// Snapshot returns a consistent-enough view of the pool counters for
// trace-event annotation. Every field reads a lock-free mirror, so
// measurement never contends with scheduling.
func (p *Pool) Snapshot() Stats {
	return Stats{
		Runnable: int(p.runnable.Load()),
		Blocked:  p.Blocked(),
		Created:  p.Created(),
		Executed: p.Executed(),
		SizeHWM:  p.SizeHighWatermark(),
	}
}
