package abt

import "sync"

// Semaphore is a counting semaphore for ULTs, used to bound the number
// of asynchronous operations in flight (e.g. the HEPnOS async engine's
// outstanding put_packed window). Acquire parks the calling ULT
// cooperatively when no permits remain.
type Semaphore struct {
	mu      sync.Mutex
	permits int
	waiters []*ULT
}

// NewSemaphore returns a semaphore with n permits.
func NewSemaphore(n int) *Semaphore {
	if n < 1 {
		n = 1
	}
	return &Semaphore{permits: n}
}

// Acquire takes a permit, parking the ULT until one is available.
func (s *Semaphore) Acquire(self *ULT) {
	s.mu.Lock()
	if s.permits > 0 {
		s.permits--
		s.mu.Unlock()
		return
	}
	if self == nil {
		panic("abt: Semaphore.Acquire without permits requires a ULT")
	}
	s.waiters = append(s.waiters, self)
	self.pool.blocked.Add(1)
	s.mu.Unlock()
	self.park()
	// The releasing side transferred a permit directly to us.
}

// Release returns a permit, waking the oldest waiter if any.
func (s *Semaphore) Release() {
	s.mu.Lock()
	if len(s.waiters) == 0 {
		s.permits++
		s.mu.Unlock()
		return
	}
	w := s.waiters[0]
	copy(s.waiters, s.waiters[1:])
	s.waiters[len(s.waiters)-1] = nil
	s.waiters = s.waiters[:len(s.waiters)-1]
	s.mu.Unlock()
	w.ready()
}
