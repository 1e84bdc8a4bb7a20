package abt

import "sync"

// Mutex is a ULT-aware mutual-exclusion lock, the analogue of ABT_mutex.
// A ULT that fails to acquire the lock parks cooperatively, releasing its
// XStream and raising its pool's blocked count — the signal SYMBIOSYS
// samples to diagnose backend serialization (paper §V-C3, Figure 10).
//
// Lock ownership transfers directly to the oldest waiter on Unlock, so
// the lock is FIFO-fair.
type Mutex struct {
	mu      sync.Mutex
	locked  bool
	waiters []*ULT
}

// NewMutex returns an unlocked mutex.
func NewMutex() *Mutex { return &Mutex{} }

// Lock acquires the mutex, parking the calling ULT if it is held.
func (m *Mutex) Lock(self *ULT) {
	m.mu.Lock()
	if !m.locked {
		m.locked = true
		m.mu.Unlock()
		return
	}
	if self == nil {
		panic("abt: Mutex.Lock on a contended mutex requires a ULT")
	}
	m.waiters = append(m.waiters, self)
	self.pool.blocked.Add(1)
	m.mu.Unlock()
	self.park()
	// Ownership was transferred to us by Unlock before we were woken.
}

// Unlock releases the mutex, handing it to the oldest waiter if any.
func (m *Mutex) Unlock() {
	m.mu.Lock()
	if !m.locked {
		m.mu.Unlock()
		panic("abt: Unlock of unlocked Mutex")
	}
	if len(m.waiters) == 0 {
		m.locked = false
		m.mu.Unlock()
		return
	}
	w := m.waiters[0]
	copy(m.waiters, m.waiters[1:])
	m.waiters[len(m.waiters)-1] = nil
	m.waiters = m.waiters[:len(m.waiters)-1]
	m.mu.Unlock()
	// The lock stays held; w now owns it.
	w.ready()
}
