package pvar

// ActiveSessions reports how many sessions are currently initialized.
func (r *Registry) ActiveSessions() int64 { return r.sessions.Load() }

// FreeHandle releases a handle before its session ends. Reading a freed
// handle fails. Tools in this tree free theirs with Session.Finalize.
func (s *Session) FreeHandle(h *Handle) {
	if h.freed.CompareAndSwap(false, true) {
		s.mu.Lock()
		delete(s.handles, h)
		s.mu.Unlock()
	}
}
