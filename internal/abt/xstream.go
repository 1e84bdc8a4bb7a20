package abt

import (
	"sync/atomic"
)

// Stream park states. Transitions: awake→parked (the stream, before it
// registers as an idler), parked→awake (exactly one waker via CAS, or
// the stream itself when its recheck finds work), anything→dead on exit.
const (
	xsAwake int32 = iota
	xsParked
	xsDead
)

// grabBatch bounds how many inject-queue ULTs one refill moves into the
// local ring, amortizing the pool lock over many quanta.
const grabBatch = 32

// XStream is an execution stream, the analogue of an ABT_xstream: a
// scheduler that repeatedly dequeues ULTs from its pools (in priority
// order) and runs each until it yields, blocks, or terminates. An
// XStream executes at most one ULT at a time.
//
// Each stream owns one local ring per pool. A scheduling pass refills
// the ring from the pool's shared inject queue in batches, pops locally,
// and — only when every ring and inject queue is empty — steals from
// sibling streams' rings before parking. Pool priority is preserved:
// pool i's ring and inject queue are always tried before pool i+1's.
type XStream struct {
	name  string
	pools []*Pool
	rings []*ring
	// idlerReg[i] mirrors "this stream has a live entry in pools[i]'s
	// idler list"; each element is guarded by that pool's mutex.
	idlerReg []bool

	parkSem   evsem
	parkState atomic.Int32
	quitting  atomic.Bool
	done      chan struct{}

	grabBuf [grabBatch]*ULT

	quanta atomic.Uint64 // scheduling quanta executed
	steals atomic.Uint64 // ULTs taken from sibling rings
	parks  atomic.Uint64 // times the stream actually slept
	wakes  atomic.Uint64 // single-waker tokens aimed at this stream
}

// NewXStream creates and starts an execution stream draining the given
// pools in order (earlier pools have priority). At least one pool is
// required.
func NewXStream(name string, pools ...*Pool) *XStream {
	if len(pools) == 0 {
		panic("abt: NewXStream requires at least one pool")
	}
	x := &XStream{
		name:     name,
		pools:    pools,
		rings:    make([]*ring, len(pools)),
		idlerReg: make([]bool, len(pools)),
		done:     make(chan struct{}),
	}
	x.parkSem.init()
	for i, p := range pools {
		x.rings[i] = &ring{}
		p.attach(x)
	}
	go x.loop()
	return x
}

// Quanta reports the number of scheduling quanta the stream has run.
func (x *XStream) Quanta() uint64 { return x.quanta.Load() }

// Steals reports ULTs this stream stole from sibling rings.
func (x *XStream) Steals() uint64 { return x.steals.Load() }

// Parks reports how many times the stream slept waiting for work.
func (x *XStream) Parks() uint64 { return x.parks.Load() }

// Wakes reports single-waker tokens delivered to this stream.
func (x *XStream) Wakes() uint64 { return x.wakes.Load() }

// Stop asks the stream to exit once its current quantum ends and waits
// for it. Ready ULTs still in its local rings are flushed back to their
// pools for other streams. Safe to call concurrently.
func (x *XStream) Stop() {
	x.quitting.Store(true)
	if x.parkState.CompareAndSwap(xsParked, xsAwake) {
		x.parkSem.set()
	}
	<-x.done
}

func (x *XStream) loop() {
	defer close(x.done)
	for {
		if x.quitting.Load() {
			x.exit()
			return
		}
		u, p := x.next()
		if u == nil {
			if !x.parkForWork() {
				x.exit()
				return
			}
			continue
		}
		// Wake propagation: if work remains after this claim, pass the
		// baton so a burst fans out one parked stream at a time.
		if p.runnable.Load() > 0 {
			p.wakeOne()
		}
		x.runQuantum(u)
	}
}

// next claims the next ULT honoring pool priority: for each pool, refill
// the local ring from the inject queue, then pop locally; only when all
// pools come up empty, try stealing from sibling rings.
func (x *XStream) next() (*ULT, *Pool) {
	for i, p := range x.pools {
		r := x.rings[i]
		if p.injected.Load() > 0 {
			if free := r.free(); free > 0 {
				n := p.grab(x.grabBuf[:min(free, grabBatch)])
				for j := 0; j < n; j++ {
					r.push(x.grabBuf[j])
					x.grabBuf[j] = nil
				}
			} else if p.grab(x.grabBuf[:1]) == 1 {
				// Ring full of requeued yielders: take injected work
				// directly so it cannot be starved.
				u := x.grabBuf[0]
				x.grabBuf[0] = nil
				p.addRunnable(-1)
				return u, p
			}
		}
		if u := r.pop(); u != nil {
			p.addRunnable(-1)
			return u, p
		}
	}
	for _, p := range x.pools {
		if u := x.steal(p); u != nil {
			p.addRunnable(-1)
			x.steals.Add(1)
			return u, p
		}
	}
	return nil, nil
}

// steal scans sibling streams attached to p for ring work.
func (x *XStream) steal(p *Pool) *ULT {
	for _, v := range p.victims() {
		if v == x {
			continue
		}
		if r := v.ringFor(p); r != nil {
			if u := r.pop(); u != nil {
				return u
			}
		}
	}
	return nil
}

// ringFor returns this stream's local ring for p, or nil.
func (x *XStream) ringFor(p *Pool) *ring {
	if i := x.poolIndex(p); i >= 0 {
		return x.rings[i]
	}
	return nil
}

// poolIndex returns p's priority slot in this stream, or -1.
func (x *XStream) poolIndex(p *Pool) int {
	for i, pp := range x.pools {
		if pp == p {
			return i
		}
	}
	return -1
}

// parkForWork sleeps until a waker delivers work, returning false when
// the stream should exit. The parked store precedes idler registration,
// which precedes the work recheck; a pusher increments the runnable
// mirror before scanning idlers. Both orders are sequentially
// consistent, so either the pusher sees this idler or the recheck sees
// the pushed work — a wakeup cannot be lost.
func (x *XStream) parkForWork() bool {
	x.parkState.Store(xsParked)
	for i, p := range x.pools {
		p.addIdler(x, i)
	}
	if x.quitting.Load() || x.haveWork() {
		if x.parkState.CompareAndSwap(xsParked, xsAwake) {
			return !x.quitting.Load()
		}
		// A waker claimed us between registration and recheck; its token
		// must be consumed to keep the semaphore balanced.
		x.parkSem.wait()
		return !x.quitting.Load()
	}
	x.parks.Add(1)
	x.parkSem.wait()
	return !x.quitting.Load()
}

// haveWork rechecks all pools through the runnable mirrors (inject
// queues plus every stream's rings, including stealable siblings').
func (x *XStream) haveWork() bool {
	for _, p := range x.pools {
		if p.runnable.Load() > 0 {
			return true
		}
	}
	return false
}

// exit flushes local rings back to their pools' inject queues and
// detaches, so queued work survives elastic scale-down and pushes stop
// paying for a dead stream.
func (x *XStream) exit() {
	x.parkState.Store(xsDead)
	for i, p := range x.pools {
		for {
			u := x.rings[i].pop()
			if u == nil {
				break
			}
			p.enqueue(u)
		}
		p.detach(x)
		if p.runnable.Load() > 0 {
			p.wakeOne()
		}
	}
}

// runQuantum grants the run token to u and processes its disposition.
//
// Concurrency note: when a ULT parks, its waker may requeue it before
// this stream has consumed the park disposition, so another stream can
// begin the next quantum concurrently and two streams briefly wait on
// u.dispGate. That is benign because dispositions are context-free —
// the only stream-side action, requeue-after-yield, is claimed by CAS so
// exactly one waiter performs it — and token/disposition counts always
// balance: every run-token grant is followed by exactly one disposition.
func (x *XStream) runQuantum(u *ULT) {
	x.quanta.Add(1)
	if u.started.CompareAndSwap(false, true) {
		if u.detached {
			go u.mainDetached()
		} else {
			go u.main()
		}
	}
	u.runGate.set()
	u.dispGate.wait()
	if u.claimYield() {
		x.requeue(u)
	}
}

// requeue puts a yielded ULT back on the ready side: preferentially into
// this stream's local ring for its pool, overflowing to the shared
// inject queue.
func (x *XStream) requeue(u *ULT) {
	p := u.pool
	u.state.Store(int32(StateReady))
	p.addRunnable(1)
	if r := x.ringFor(p); r != nil && r.push(u) {
		return
	}
	p.enqueue(u)
	p.wakeOne()
}
