package margo

import (
	"context"
	"time"

	"symbiosys/internal/batch"
	"symbiosys/internal/core"
	"symbiosys/internal/mercury"
)

// OverloadPolicy is the server-side admission-control configuration
// (Options.Overload). The paper's C2 configuration saturates because an
// undersized handler pool queues requests unboundedly; this policy
// bounds that queue: when the handler pool's runnable depth reaches the
// watermark or the in-flight handler count reaches its cap, new requests
// are shed at dispatch (t4) with a typed, retryable rejection instead of
// being buried in the queue. Shedding happens to the *newest* requests first
// (the ones just arriving), CoDel-style: requests already admitted keep
// their execution streams and drain the backlog.
type OverloadPolicy struct {
	// Watermark is the handler-pool runnable depth at which new requests
	// are shed. Default 64.
	Watermark int
	// MaxInFlight caps admitted-but-unfinished handlers; at or above the
	// cap every new request is shed. Zero means no cap. This is the
	// deterministic knob tests use: unlike queue depth it does not race
	// with how fast execution streams drain.
	MaxInFlight int
}

func (p OverloadPolicy) withDefaults() OverloadPolicy {
	if p.Watermark <= 0 {
		p.Watermark = 64
	}
	return p
}

// admission is the dispatch-time verdict for one incoming request.
type admission int

const (
	admitOK admission = iota
	admitShed
	admitExpired
)

// admitVerdict decides, in the progress ULT at dispatch time (t4),
// whether an incoming request gets a handler ULT. Draining instances
// shed everything; expired deadlines are rejected before any queueing;
// otherwise the overload policy's in-flight cap and watermark apply.
func (i *Instance) admitVerdict(meta mercury.Meta) admission {
	if i.draining.Load() {
		return admitShed
	}
	if meta.DeadlineNanos != 0 && time.Now().UnixNano() > meta.DeadlineNanos {
		return admitExpired
	}
	ol := i.overload
	if ol == nil {
		return admitOK
	}
	if ol.MaxInFlight > 0 && i.handlersInFlight.Load() >= int64(ol.MaxInFlight) {
		return admitShed
	}
	if int(i.handlerPool.Runnable()) >= ol.Watermark {
		return admitShed
	}
	return admitOK
}

// rejectRequest answers a request the admission check refused, without
// spawning a handler ULT. It runs in the progress ULT's Trigger pass.
// The decision is visible three ways: the shed/expired counter (PVAR +
// telemetry), a start/end trace-event pair with Failed set (so sym trace
// spans show *why* the request died instead of dangling), and the typed
// response status the origin maps back to ErrOverloaded /
// ErrDeadlineExpired.
func (i *Instance) rejectRequest(mh *mercury.Handle, rpcName string, verdict admission) {
	meta := mh.Meta()
	stage := i.prof.Stage()

	respMeta := mercury.Meta{}
	if stage.Injects() && meta.HasTrace {
		i.prof.Clock.Merge(meta.Order)
		respMeta = mercury.Meta{HasTrace: true, Order: i.prof.Clock.Tick()}
	}

	if stage.Measures() {
		// Both halves of the span are emitted here: analysis pairs a
		// start with an end per (entity, breadcrumb, side), so a lone
		// Failed end event would be dropped as unmatched.
		ev := i.stamp(core.EvTargetStart, time.Now(), meta.RequestID, respMeta.Order, mh.Peer(), rpcName, core.Breadcrumb(meta.Breadcrumb), i.handlerPool)
		i.prof.EmitSampled(meta.RequestID, ev, nil, nil)
		ev.Kind, ev.Failed = core.EvTargetEnd, true
		i.prof.EmitSampled(meta.RequestID, ev, nil, nil)
	}

	switch verdict {
	case admitExpired:
		i.expiredTotal.Add(1)
		_ = mh.RespondExpired(respMeta, nil)
	default:
		i.shedTotal.Add(1)
		_ = mh.RespondOverloaded(respMeta, nil)
	}
	// No handler will own the handle; the response send keeps it until
	// it is on the wire.
	mh.Destroy()
}

// OverloadStats is the instance's lifetime overload-control counters.
type OverloadStats struct {
	// Shed counts requests rejected by admission control (watermarks,
	// in-flight cap, or draining).
	Shed uint64
	// Expired counts requests rejected because their propagated
	// deadline had passed (at dispatch or at handler start).
	Expired uint64
	// BreakerTrips counts client-side circuit-breaker closed→open
	// transitions.
	BreakerTrips uint64
	// BreakerFastFails counts forward attempts refused locally by an
	// open breaker without touching the network.
	BreakerFastFails uint64
	// OpenBreakers is the number of (target, RPC) breakers currently
	// not closed.
	OpenBreakers int
}

// OverloadStats reports the instance's overload-control counters.
func (i *Instance) OverloadStats() OverloadStats {
	return OverloadStats{
		Shed:             i.shedTotal.Load(),
		Expired:          i.expiredTotal.Load(),
		BreakerTrips:     i.breakerTripsTotal.Load(),
		BreakerFastFails: i.breakerFastFailsTotal.Load(),
		OpenBreakers:     i.openBreakers(),
	}
}

// OnDrain registers a hook that Drain invokes after the instance stops
// admitting requests but before it waits out in-flight work and shuts
// down — the window where a service can run last outbound RPCs (the
// endpoint still forwards and receives responses) to hand its state to
// peers. Hooks run in registration order on the draining goroutine;
// the first hook error is reported by Drain after shutdown completes.
func (i *Instance) OnDrain(fn func(ctx context.Context) error) {
	i.drainMu.Lock()
	i.drainHooks = append(i.drainHooks, fn)
	i.drainMu.Unlock()
}

// Drain gracefully quiesces the instance: it stops admitting new
// requests (incoming RPCs are shed with ErrOverloaded so origins fail
// over), runs any OnDrain hooks, waits for in-flight handlers and
// outbound forwards to finish, then runs the full Shutdown sequence —
// sink flush, PVAR session finalize, endpoint close. If
// ctx expires first the instance is torn down anyway (in-flight work is
// abandoned) and ctx's error is returned so callers know the drain was
// dirty.
func (i *Instance) Drain(ctx context.Context) error {
	i.draining.Store(true)
	// Open coalescer windows flush immediately: their members count in
	// rpcsInFlight, so the wait below would otherwise idle out a window
	// timer per (target, RPC) before making progress.
	i.flushAll(batch.ReasonDrain)
	i.drainMu.Lock()
	hooks := append([]func(context.Context) error{}, i.drainHooks...)
	i.drainMu.Unlock()
	var hookErr error
	for _, fn := range hooks {
		if err := fn(ctx); err != nil && hookErr == nil {
			hookErr = err
		}
	}
	for i.handlersInFlight.Load() != 0 || i.rpcsInFlight.Load() != 0 {
		select {
		case <-ctx.Done():
			serr := i.Shutdown()
			if serr != nil {
				return serr
			}
			return ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
	if err := i.Shutdown(); err != nil {
		return err
	}
	return hookErr
}
