package na

// Read-only probes of an endpoint for the package's own tests.

// Closed reports whether Close has been called.
func (e *Endpoint) Closed() bool { return e.closed.Load() }

// Sends reports the lifetime number of messages sent.
func (e *Endpoint) Sends() uint64 { return e.sends.Load() }

// Recvs reports the lifetime number of messages delivered.
func (e *Endpoint) Recvs() uint64 { return e.recvs.Load() }

// CQDepthHWM reports the completion queue's length high-water mark.
func (e *Endpoint) CQDepthHWM() int { return int(e.cq.lenHWM.Load()) }
