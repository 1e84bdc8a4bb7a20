package na

import (
	"sync"
	"sync/atomic"
	"time"
)

// completionQueue is a bounded FIFO of completion events with a
// wait/notify facility for progress loops. The events sit in a
// head-indexed ring of power-of-two length that doubles up to cap, so a
// bounded read costs what it reads, whatever the backlog behind it.
type completionQueue struct {
	mu    sync.Mutex
	q     []Event
	head  int
	n     int
	cap   int
	notif chan struct{}

	// timer is reused across wait calls: the adaptive progress engine
	// parks here on every idle backoff, and a fresh time.Timer per park
	// would put an allocation on the scheduler's idle path. Guarded by
	// timerMu — wait may be called from concurrent progress loops.
	timerMu sync.Mutex
	timer   *time.Timer

	overflows atomic.Uint64
	posted    atomic.Uint64
	read      atomic.Uint64
	lenHWM    atomic.Int64
}

func newCompletionQueue(capacity int) *completionQueue {
	return &completionQueue{cap: capacity, notif: make(chan struct{}, 1)}
}

func (c *completionQueue) post(ev Event) {
	ev.Posted = time.Now()
	c.mu.Lock()
	if c.n >= c.cap {
		c.mu.Unlock()
		c.overflows.Add(1)
		return
	}
	if c.n == len(c.q) {
		// Double the ring, unrolling it so the head is at 0.
		next := make([]Event, max(16, 2*len(c.q)))
		k := copy(next, c.q[c.head:])
		copy(next[k:], c.q[:c.head])
		c.q, c.head = next, 0
	}
	c.q[(c.head+c.n)&(len(c.q)-1)] = ev
	c.n++
	if n := int64(c.n); n > c.lenHWM.Load() {
		c.lenHWM.Store(n)
	}
	c.mu.Unlock()
	c.posted.Add(1)
	select {
	case c.notif <- struct{}{}:
	default:
	}
}

// pollInto drains up to max events, in arrival order, into the caller's
// buffer (reused across progress iterations so the steady-state drain
// does not allocate). A buf without the capacity falls back to
// allocating.
func (c *completionQueue) pollInto(buf []Event, max int) []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == 0 || max <= 0 {
		return nil
	}
	n := min(max, c.n)
	var out []Event
	if cap(buf) >= n {
		out = buf[:n]
	} else {
		out = make([]Event, n)
	}
	for i := range out {
		slot := &c.q[(c.head+i)&(len(c.q)-1)]
		out[i] = *slot
		*slot = Event{} // the ring must not pin a read event's frame or context
	}
	c.head = (c.head + n) & (len(c.q) - 1)
	c.n -= n
	c.read.Add(uint64(n))
	return out
}

func (c *completionQueue) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// wait blocks until an event is pending or timeout elapses. A zero
// timeout is a non-blocking check.
func (c *completionQueue) wait(timeout time.Duration) bool {
	if c.len() > 0 {
		return true
	}
	if timeout <= 0 {
		return false
	}
	c.timerMu.Lock()
	defer c.timerMu.Unlock()
	if c.timer == nil {
		c.timer = time.NewTimer(timeout)
	} else {
		c.timer.Reset(timeout)
	}
	deadline := time.Now().Add(timeout)
	for {
		if time.Until(deadline) <= 0 {
			c.stopTimer()
			return c.len() > 0
		}
		select {
		case <-c.notif:
			if c.len() > 0 {
				c.stopTimer()
				return true
			}
			// Notification raced with a concurrent poll; keep waiting.
		case <-c.timer.C:
			return c.len() > 0
		}
	}
}

// stopTimer quiesces the shared timer so the next Reset starts clean.
// Called with timerMu held and the timer non-nil.
func (c *completionQueue) stopTimer() {
	if !c.timer.Stop() {
		select {
		case <-c.timer.C:
		default:
		}
	}
}
