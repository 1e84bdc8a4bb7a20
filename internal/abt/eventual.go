package abt

import "sync"

// Eventual is a single-assignment synchronization object, the analogue of
// ABT_eventual: ULTs (or plain goroutines) wait until some other party
// sets a value. Waiting from a ULT is cooperative — the XStream is
// released while the ULT is parked — which is how Margo turns Mercury's
// callback completion model into blocking calls.
//
// The zero value is an unset eventual, so one can be embedded by value
// in a pooled record and reused through Reset.
type Eventual struct {
	mu    sync.Mutex
	isSet bool
	val   any
	// waiter is the first parked ULT; the common one-waiter case never
	// touches the slice.
	waiter  *ULT
	waiters []*ULT
	extCh   chan struct{} // lazily created for non-ULT waiters
}

// NewEventual returns an unset eventual.
func NewEventual() *Eventual { return &Eventual{} }

// Reset returns the eventual to the unset state for reuse. The caller
// must own it exclusively: every Wait has returned and no Set is in
// flight.
func (e *Eventual) Reset() {
	e.mu.Lock()
	e.isSet = false
	e.val = nil
	e.extCh = nil
	e.mu.Unlock()
}

// Set stores the value and wakes all waiters. Setting an already-set
// eventual panics, matching the single-assignment contract.
func (e *Eventual) Set(v any) {
	if !e.TrySet(v) {
		panic("abt: Eventual set twice")
	}
}

// TrySet stores the value if the eventual is still unset, reporting
// whether this call won. Use when multiple parties race to complete.
func (e *Eventual) TrySet(v any) bool {
	e.mu.Lock()
	if e.isSet {
		e.mu.Unlock()
		return false
	}
	e.isSet = true
	e.val = v
	first, rest := e.waiter, e.waiters
	e.waiter, e.waiters = nil, nil
	ext := e.extCh
	e.mu.Unlock()
	// Nothing below touches e: a woken waiter may Reset and reuse it.
	if ext != nil {
		close(ext)
	}
	if first != nil {
		first.ready()
	}
	for _, w := range rest {
		w.ready()
	}
	return true
}

// Wait blocks until the eventual is set and returns its value. When
// called from a ULT, self must be that ULT so the wait parks
// cooperatively; from a plain goroutine pass self == nil.
func (e *Eventual) Wait(self *ULT) any {
	e.mu.Lock()
	if e.isSet {
		v := e.val
		e.mu.Unlock()
		return v
	}
	if self == nil {
		if e.extCh == nil {
			e.extCh = make(chan struct{})
		}
		ch := e.extCh
		e.mu.Unlock()
		<-ch
	} else {
		if e.waiter == nil {
			e.waiter = self
		} else {
			e.waiters = append(e.waiters, self)
		}
		self.pool.blocked.Add(1)
		e.mu.Unlock()
		self.park()
	}
	e.mu.Lock()
	v := e.val
	e.mu.Unlock()
	return v
}
