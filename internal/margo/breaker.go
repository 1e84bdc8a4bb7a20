package margo

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"symbiosys/internal/mercury"
	"symbiosys/internal/na"
)

// ErrCircuitOpen marks a forward attempt refused locally because the
// (target, RPC) circuit breaker is open: recent attempts kept hitting
// overload-class failures, so further traffic would only feed the
// saturated provider. The error is retryable — the retry loop's backoff
// waits out the cooldown and a half-open probe decides whether the
// circuit closes again.
var ErrCircuitOpen = errors.New("margo: circuit breaker open")

// BreakerPolicy configures the client-side circuit breaker
// (RetryPolicy.Breaker). One breaker exists per (target, RPC) pair; it
// trips after Threshold consecutive overload-class failures —
// ErrOverloaded sheds, deadline rejections, per-try timeouts, and
// fabric partition errors — then fast-fails locally for Cooldown before
// letting a single probe through (half-open). A probe that succeeds
// closes it again; one that fails re-opens it.
type BreakerPolicy struct {
	// Threshold is the consecutive overload-class failure count that
	// trips the breaker. Default 5.
	Threshold int
	// Cooldown is how long an open breaker fast-fails before admitting
	// a half-open probe. Default 50ms.
	Cooldown time.Duration
}

func (p BreakerPolicy) withDefaults() BreakerPolicy {
	if p.Threshold <= 0 {
		p.Threshold = 5
	}
	if p.Cooldown <= 0 {
		p.Cooldown = 50 * time.Millisecond
	}
	return p
}

// breakerState is the circuit's position.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("breakerState(%d)", int(s))
}

// breakerKey identifies one circuit.
type breakerKey struct {
	target string
	rpc    string
}

// breaker is one (target, RPC) circuit. All fields are guarded by mu;
// the forward path takes it twice per attempt (allow + record), which
// is cheap next to an RPC round trip.
type breaker struct {
	mu       sync.Mutex
	pol      BreakerPolicy
	state    breakerState
	failures int       // consecutive overload-class failures (closed)
	openedAt time.Time // when the circuit last opened
	probing  bool      // a half-open probe is in flight
}

// allow reports whether an attempt may proceed. In the open state it
// fast-fails until the cooldown elapses, then admits exactly one probe
// at a time (half-open). tripped reports a state observation the caller
// counts as a fast-fail.
func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Sub(b.openedAt) < b.pol.Cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open: one probe at a time
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// record folds one attempt outcome into the circuit. overloadClass
// marks failures that indicate provider saturation or partition (the
// ones that should trip the breaker); other errors reset the streak —
// the provider answered, however unhappily. tripped reports a
// closed→open or half-open→open transition (for the trips counter).
func (b *breaker) record(now time.Time, failed, overloadClass bool) (tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		if failed && overloadClass {
			b.failures++
			if b.failures >= b.pol.Threshold {
				b.state = breakerOpen
				b.openedAt = now
				b.failures = 0
				return true
			}
			return false
		}
		b.failures = 0
	case breakerHalfOpen:
		b.probing = false
		if failed && overloadClass {
			b.state = breakerOpen
			b.openedAt = now
			return true
		}
		if !failed {
			b.state = breakerClosed
			b.failures = 0
		}
	case breakerOpen:
		// A straggler attempt admitted before the trip completed; its
		// outcome does not move an already-open circuit.
	}
	return false
}

func (b *breaker) currentState() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// breakerFor returns (lazily creating) the circuit for one (target,
// RPC) pair, or nil when no breaker policy is configured.
func (i *Instance) breakerFor(target, rpcName string) *breaker {
	if i.retry == nil || i.retry.pol.Breaker == nil {
		return nil
	}
	key := breakerKey{target: target, rpc: rpcName}
	i.breakerMu.Lock()
	defer i.breakerMu.Unlock()
	if i.breakers == nil {
		i.breakers = make(map[breakerKey]*breaker)
	}
	b := i.breakers[key]
	if b == nil {
		b = &breaker{pol: i.retry.pol.Breaker.withDefaults()}
		i.breakers[key] = b
	}
	return b
}

// openBreakers counts circuits currently not closed.
func (i *Instance) openBreakers() int {
	i.breakerMu.Lock()
	defer i.breakerMu.Unlock()
	n := 0
	for _, b := range i.breakers {
		if b.currentState() != breakerClosed {
			n++
		}
	}
	return n
}

// overloadClass classifies a failed attempt for the breaker: provider
// saturation (sheds, deadline rejections), per-try timeouts, and fabric
// partition/unreachability (na EvError path) all count — each means the
// provider is not usefully absorbing traffic right now. Handler errors
// and cancellations do not: the provider is up and answering.
func overloadClass(err error, timedOut bool) bool {
	return timedOut ||
		errors.Is(err, mercury.ErrOverloaded) ||
		errors.Is(err, mercury.ErrDeadlineExpired) ||
		errors.Is(err, na.ErrPartitioned) ||
		errors.Is(err, na.ErrUnreachable) ||
		errors.Is(err, na.ErrClosed)
}
