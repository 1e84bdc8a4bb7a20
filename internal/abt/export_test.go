package abt

// What the package's own tests observe a runtime through, and the one
// operation (TryLock) only they perform.

// IsSet reports whether the eventual has been set.
func (e *Eventual) IsSet() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.isSet
}

// TryLock acquires the mutex without blocking, reporting success.
func (m *Mutex) TryLock() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.locked {
		return false
	}
	m.locked = true
	return true
}

// FreeListLen reports how many recycled detached ULTs are pooled.
func (p *Pool) FreeListLen() int {
	p.freeMu.Lock()
	defer p.freeMu.Unlock()
	return len(p.free)
}

// IdleWorkers reports how many workers of shut-down runtimes are parked
// for later pools to take up.
func IdleWorkers() int {
	idleWorkers.mu.Lock()
	defer idleWorkers.mu.Unlock()
	return len(idleWorkers.us)
}

// State reports the current lifecycle state.
func (u *ULT) State() State { return State(u.state.Load()) }
