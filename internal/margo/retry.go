package margo

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"symbiosys/internal/mercury"
	"symbiosys/internal/na"
)

// ErrDeadlineExceeded marks a Forward that ran out of deadline or
// attempts. The returned error also wraps the last attempt's failure,
// so errors.Is(err, mercury.ErrCanceled) still holds for timeouts.
var ErrDeadlineExceeded = errors.New("margo: forward deadline exceeded")

// ErrRetryBudgetExhausted marks a retryable failure abandoned because
// the instance's retry budget ran dry (retry-storm protection).
var ErrRetryBudgetExhausted = errors.New("margo: retry budget exhausted")

// budgetRefill is the number of retry tokens each successful attempt
// puts back: sustained, one retry per two successes.
const budgetRefill = 0.5

// RetryPolicy is the client-side resilience configuration applied to
// every forward of an instance, single or coalesced (Options.Retry). Send
// failures the fabric reports before delivery (unreachable, closed,
// partitioned links) are always retried; per-try timeouts are retried
// only for RPCs opted in as idempotent (MarkIdempotent), because a
// timed-out request may have executed at the target.
type RetryPolicy struct {
	// MaxAttempts bounds total tries including the first. Default 4.
	MaxAttempts int
	// InitialBackoff is the sleep before the first retry; each further
	// retry doubles it, capped at MaxBackoff. Defaults: 1ms initial,
	// 100ms cap.
	InitialBackoff time.Duration
	MaxBackoff     time.Duration
	// PerTryTimeout cancels each attempt that has not completed within
	// it, also for plain Forward calls (ForwardOpts.Timeout
	// additionally bounds the whole sequence). Zero means attempts only
	// time out under a ForwardOpts.Timeout.
	PerTryTimeout time.Duration
	// Budget is the token bucket protecting against retry storms: each
	// retry spends one token, each success refills budgetRefill tokens
	// (capped at Budget). Default 64 tokens. A negative Budget disables
	// the bucket.
	Budget float64
	// Breaker, when non-nil, adds a per-(target, RPC) circuit breaker
	// in front of every attempt: consecutive overload-class failures
	// (sheds, deadline rejections, timeouts, fabric partitions) trip it
	// open, after which attempts fast-fail locally with ErrCircuitOpen
	// until a half-open probe succeeds. Nil (the default) disables it.
	Breaker *BreakerPolicy
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.InitialBackoff <= 0 {
		p.InitialBackoff = time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 100 * time.Millisecond
	}
	if p.Budget == 0 {
		p.Budget = 64
	}
	return p
}

// DefaultRetryPolicy is the policy the chaos experiments install:
// 4 attempts, 1ms..100ms exponential backoff, and a
// 1s per-try timeout to recover from silently dropped messages. The
// timeout is deliberately generous: it only has to beat a silent drop,
// and a value near genuine response latency would burn the retry
// budget on spurious timeouts under load.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{PerTryTimeout: time.Second}.withDefaults()
}

// retryState is the per-instance runtime of a RetryPolicy: the token
// bucket.
type retryState struct {
	pol RetryPolicy

	mu     sync.Mutex
	tokens float64
}

func newRetryState(pol RetryPolicy) *retryState {
	pol = pol.withDefaults()
	return &retryState{pol: pol, tokens: pol.Budget}
}

// tryTimeout is the bound on one attempt: the policy's PerTryTimeout,
// capped by left, what remains of the bound on the whole call (zero:
// none). Zero, also for an instance without a policy and a call without
// a bound, means the attempt carries no timer.
func (rs *retryState) tryTimeout(left time.Duration) time.Duration {
	if rs == nil || rs.pol.PerTryTimeout <= 0 || (left > 0 && left < rs.pol.PerTryTimeout) {
		return left
	}
	return rs.pol.PerTryTimeout
}

// allow spends one retry token, reporting whether the retry may go.
func (rs *retryState) allow() bool {
	if rs.pol.Budget < 0 {
		return true
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.tokens < 1 {
		return false
	}
	rs.tokens--
	return true
}

// success refills the bucket after a completed forward.
func (rs *retryState) success() {
	if rs.pol.Budget < 0 {
		return
	}
	rs.mu.Lock()
	rs.tokens += budgetRefill
	if rs.tokens > rs.pol.Budget {
		rs.tokens = rs.pol.Budget
	}
	rs.mu.Unlock()
}

// backoff returns the sleep before retry number `retry` (0-based):
// InitialBackoff doubled per retry, capped at MaxBackoff.
func (rs *retryState) backoff(retry int) time.Duration {
	d := rs.pol.InitialBackoff
	for i := 0; i < retry && d < rs.pol.MaxBackoff; i++ {
		d *= 2
	}
	return min(d, rs.pol.MaxBackoff)
}

// MarkIdempotent opts RPC names into timeout retries: a per-try
// deadline on these RPCs is treated as recoverable because re-executing
// the request at the target is safe (e.g. sdskv_put_packed overwrites
// the same keys).
func (i *Instance) MarkIdempotent(rpcNames ...string) {
	i.idemMu.Lock()
	if i.idem == nil {
		i.idem = make(map[string]bool, len(rpcNames))
	}
	for _, n := range rpcNames {
		i.idem[n] = true
	}
	i.idemMu.Unlock()
}

// RegisterClientIdempotent is RegisterClient plus MarkIdempotent.
func (i *Instance) RegisterClientIdempotent(rpcNames ...string) error {
	if err := i.RegisterClient(rpcNames...); err != nil {
		return err
	}
	i.MarkIdempotent(rpcNames...)
	return nil
}

// Idempotent reports whether an RPC name is opted into timeout retries.
func (i *Instance) Idempotent(rpcName string) bool {
	i.idemMu.Lock()
	defer i.idemMu.Unlock()
	return i.idem[rpcName]
}

// retryable classifies one failed attempt. timedOut marks a failure
// produced by this forward's own per-try timer.
func (i *Instance) retryable(err error, timedOut bool, rpcName string) bool {
	if timedOut {
		// The request may have reached (and executed at) the target;
		// only re-issue when re-execution is declared safe.
		return i.Idempotent(rpcName)
	}
	// Overload sheds happen before any handler ran, so the request had
	// no effect and any RPC may retry; an open breaker is retryable for
	// the same reason (nothing was sent), letting the backoff wait out
	// the cooldown. Deadline expiries are NOT retryable: the deadline is
	// absolute, so a retry would only be rejected again.
	if errors.Is(err, mercury.ErrOverloaded) || errors.Is(err, ErrCircuitOpen) {
		return true
	}
	// Send-path failures the fabric reported before delivery: the target
	// never saw the request, so retrying is safe for any RPC.
	return errors.Is(err, na.ErrPartitioned) ||
		errors.Is(err, na.ErrUnreachable) ||
		errors.Is(err, na.ErrClosed)
}

// RetryStats is the instance's lifetime resilience counters.
type RetryStats struct {
	// Retries counts re-issued attempts (attempts beyond each forward's
	// first).
	Retries uint64
	// Timeouts counts per-try deadlines that canceled an attempt.
	Timeouts uint64
	// Exhausted counts forwards abandoned with retryable errors
	// (attempts, deadline, or budget ran out).
	Exhausted uint64
}

// RetryStats reports the instance's resilience counters.
func (i *Instance) RetryStats() RetryStats {
	return RetryStats{
		Retries:   i.retriesTotal.Load(),
		Timeouts:  i.timeoutsTotal.Load(),
		Exhausted: i.exhaustedTotal.Load(),
	}
}

// exhausted wraps the final retryable error once the origin gives up.
func exhausted(kind error, rpcName, target string, attempts int, last error) error {
	return fmt.Errorf("%w: %s to %s after %d attempt(s): %w", kind, rpcName, target, attempts, last)
}
