package margo

// Probes the package's own tests observe an instance through.

// InFlight reports RPCs this instance has forwarded but not completed.
func (i *Instance) InFlight() int64 { return i.rpcsInFlight.Load() }

// HandlersInFlight reports admitted-but-unfinished handler ULTs.
func (i *Instance) HandlersInFlight() int64 { return i.handlersInFlight.Load() }

// BreakerState reports one circuit's state as a string ("closed",
// "open", "half-open"); "closed" for circuits that never saw traffic.
func (i *Instance) BreakerState(target, rpcName string) string {
	i.breakerMu.Lock()
	b := i.breakers[breakerKey{target: target, rpc: rpcName}]
	i.breakerMu.Unlock()
	if b == nil {
		return breakerClosed.String()
	}
	return b.currentState().String()
}
