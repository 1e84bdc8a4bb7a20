package abt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Func is the body of a user-level thread. The runtime passes the ULT's
// own handle so the body can yield, block, and reach its data slot.
type Func func(self *ULT)

// ULT is a user-level thread: a unit of cooperative work created into a
// Pool and executed by XStreams. A ULT runs only while it holds the run
// token granted by an XStream; Yield, blocking primitives, and
// termination return the token.
//
// The token handoff is two counting event semaphores: runGate grants the
// token to the ULT goroutine, dispGate returns it to a hosting stream.
// Dispositions are context-free — a stream receiving a disposition signal
// does not need to know which quantum produced it. The only disposition
// requiring stream-side action, "requeue after yield", travels as a
// pending count claimed by CAS, so even when a waker requeues a parked
// ULT and a second stream starts the next quantum before the first stream
// consumed the park disposition, exactly one stream performs the requeue.
type ULT struct {
	id   uint64
	name string
	fn   Func
	pool *Pool

	runGate  evsem
	dispGate evsem
	// yieldPending counts yields awaiting a stream-side requeue; the
	// stream that wins the decrement CAS requeues.
	yieldPending atomic.Int32

	// detached ULTs have no handle, cannot be joined, and recycle their
	// struct and goroutine through the pool free list.
	detached bool

	started  atomic.Bool
	state    atomic.Int32
	spawned  time.Time
	firstRun time.Time

	doneCh chan struct{} // nil for detached ULTs
	panicV any

	// data is the ULT's one typed local slot, the analogue of an
	// ABT_key: the owner of the ULT's current life stores a pointer to
	// its per-request record here. Only the ULT itself (or its creator,
	// before the first run) touches it, so it needs no lock.
	data any

	// joiners are ULTs parked in Join waiting for this ULT to finish.
	joinMu  sync.Mutex
	joiners []*ULT
}

func newULT(name string, fn Func, p *Pool, detached bool) *ULT {
	u := &ULT{
		id:       nextULTID(),
		name:     name,
		fn:       fn,
		pool:     p,
		detached: detached,
		spawned:  time.Now(),
	}
	u.runGate.init()
	u.dispGate.init()
	if !detached {
		u.doneCh = make(chan struct{})
	}
	return u
}

// ID returns the runtime-unique identifier of the ULT.
func (u *ULT) ID() uint64 { return u.id }

// SpawnTime returns the instant the ULT was created into its pool (the
// paper's t4 for RPC handler ULTs).
func (u *ULT) SpawnTime() time.Time { return u.spawned }

// FirstRunTime returns the instant the ULT first began executing (t5).
// It is zero until the ULT has run.
func (u *ULT) FirstRunTime() time.Time { return u.firstRun }

// Err returns a non-nil error if the ULT body panicked.
func (u *ULT) Err() error {
	select {
	case <-u.doneCh:
	default:
		return nil
	}
	if u.panicV != nil {
		return fmt.Errorf("abt: ULT %q panicked: %v", u.name, u.panicV)
	}
	return nil
}

// SetData stores v in the ULT's local slot, the analogue of setting an
// ABT_key. Call it from the ULT itself. Storing a pointer does not
// allocate; the slot is cleared when a detached ULT is recycled.
func (u *ULT) SetData(v any) { u.data = v }

// Data returns the value last stored with SetData (or handed to
// CreateDetachedWith), nil when none.
func (u *ULT) Data() any { return u.data }

// Yield returns the run token to the hosting XStream and requeues the ULT
// on its pool, letting equal-priority work run.
func (u *ULT) Yield() {
	u.state.Store(int32(StateReady))
	u.yieldPending.Add(1)
	u.dispGate.set()
	u.runGate.wait()
	u.state.Store(int32(StateRunning))
}

// claimYield consumes one pending requeue-after-yield, reporting whether
// the calling stream won it.
func (u *ULT) claimYield() bool {
	for {
		n := u.yieldPending.Load()
		if n == 0 {
			return false
		}
		if u.yieldPending.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// park releases the XStream without requeueing; the caller must have
// arranged for a waker to call u.ready() exactly once.
func (u *ULT) park() {
	u.state.Store(int32(StateBlocked))
	u.dispGate.set()
	u.runGate.wait()
	u.state.Store(int32(StateRunning))
}

// ready requeues a parked ULT. Called exactly once per park by the
// primitive that woke it.
func (u *ULT) ready() {
	u.pool.blocked.Add(-1)
	u.pool.push(u)
}

// run executes the body, capturing panics.
func (u *ULT) run() {
	defer func() {
		if r := recover(); r != nil {
			u.panicV = r
		}
	}()
	u.fn(u)
}

// main is the goroutine body backing a joinable ULT. It waits for its
// first run token, executes fn once, and reports termination.
func (u *ULT) main() {
	u.runGate.wait()
	u.firstRun = time.Now()
	u.state.Store(int32(StateRunning))
	u.run()
	u.state.Store(int32(StateTerminated))
	u.pool.executed.Add(1)
	u.joinMu.Lock()
	joiners := u.joiners
	u.joiners = nil
	close(u.doneCh)
	u.joinMu.Unlock()
	for _, j := range joiners {
		j.ready()
	}
	u.dispGate.set()
}

// mainDetached backs a detached ULT: a persistent worker that runs one
// body per life, returns its struct to the pool free list, and parks for
// the next life's token. fn == nil is the shutdown poison pill.
func (u *ULT) mainDetached() {
	for {
		u.runGate.wait()
		if u.fn == nil {
			return
		}
		u.firstRun = time.Now()
		u.state.Store(int32(StateRunning))
		u.run()
		u.state.Store(int32(StateTerminated))
		pool := u.pool
		pool.executed.Add(1)
		u.fn = nil
		u.panicV = nil
		u.data = nil
		u.dispGate.set()
		pool.recycle(u)
	}
}

// Join blocks until u terminates. When called from inside another ULT,
// self must be that ULT so the wait is cooperative (the XStream is
// released); from a plain goroutine pass self == nil.
func (u *ULT) Join(self *ULT) error {
	if self == nil {
		<-u.doneCh
		return u.Err()
	}
	u.joinMu.Lock()
	select {
	case <-u.doneCh:
		u.joinMu.Unlock()
		return u.Err()
	default:
	}
	u.joiners = append(u.joiners, self)
	self.pool.blocked.Add(1)
	u.joinMu.Unlock()
	self.park()
	return u.Err()
}

// Sleep parks the ULT for at least d, releasing its XStream meanwhile.
func (u *ULT) Sleep(d time.Duration) {
	u.pool.blocked.Add(1)
	time.AfterFunc(d, u.ready)
	u.park()
}
